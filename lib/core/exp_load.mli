(** Internet-scale load harness (the standing latency-vs-load experiment).

    Sweeps offered load over a configurable client fleet
    ({!M3v_load.Fleet}) driving the net stack, m3fs and the key-value
    service concurrently — the KV traffic fans into one shared MPMC
    receive gate, fs/net use ordinary point-to-point channels.  Each
    step reports goodput and per-class latency percentiles; the sweep is
    scanned for the saturation knee (first step whose p99 breaks the SLO
    or whose marginal goodput stops scaling) and the knee's bottleneck
    is attributed from the critical-path profiler's segment means. *)

type config = {
  clients : int;
  drivers : int;  (** driver activities the clients multiplex onto *)
  rate_per_s : float;  (** aggregate offered load at step fraction 1.0 *)
  closed : bool;  (** closed loop (think time) instead of open loop *)
  think_ms : int;  (** closed-loop mean think time at fraction 1.0 *)
  arrivals : M3v_load.Fleet.arrivals;  (** open-loop arrival process *)
  mix : (M3v_load.Fleet.kind * int) list;
  skew : float;  (** Zipf theta over the key space *)
  keys : int;
  duration_ms : int;  (** measurement window *)
  warmup_ms : int;
  fracs : float list;  (** load steps, as fractions of [rate_per_s] *)
  slo_p99_us : float;
  seed : int;
}

val default : config

type step = {
  st_frac : float;
  st_offered : float;  (** measured offered rate, req/s *)
  st_scheduled : int;
  st_completed : int;
  st_errors : int;
  st_goodput : float;
  st_rows : M3v_load.Slo.row list;
  st_p99_us : float;
  st_segments : (string * float) list;
  st_credit_stalls : int;
  st_sends : int;
}

type result = {
  r_cfg : config;
  r_steps : step list;
  r_verdict : M3v_load.Knee.verdict;
  r_attribution : string;
}

(** [Ok ()] when [cfg] can run: drivers in [\[1, 8\]] (the services'
    endpoint provisioning) and at most [clients], [clients] and [keys]
    positive, [skew] in [\[0, 1)], [rate_per_s] positive, and a
    non-empty step list of positive fractions.  Otherwise [Error msg]
    names the first bad field. *)
val validate : config -> (unit, string) Stdlib.result

(** Steps fan out over [pool] as independent simulations and merge in
    submission order, so reports are byte-identical across [--jobs]
    settings.  Raises [Invalid_argument] when {!validate} rejects
    [cfg]. *)
val run : ?pool:M3v_par.Par.Pool.t -> ?cfg:config -> unit -> result

val pp : Format.formatter -> result -> unit
val print : result -> unit
