(** Simulated client fleets.

    A fleet models thousands-to-millions of clients as cheap bookkeeping
    (arrival schedules, think-time heaps, key samplers) multiplexed onto
    a small, bounded set of {e driver} activities — one activity per
    driver, one outstanding request per driver.  Drivers are the only
    simulated actors that own endpoints, so the endpoint cost is
    O(drivers), not O(clients).

    Two load loops:

    - {e open loop}: requests arrive on a Poisson (or bursty MMPP)
      schedule at the configured aggregate rate, independent of
      completions.  Latency is measured from the {e scheduled} arrival,
      not the issue instant, so driver backlog counts against the service
      (coordinated-omission correction) and p99 explodes past the knee.
    - {e closed loop}: each client issues, waits for the completion, then
      thinks for an exponential think time before issuing again.

    All randomness flows from per-driver [Rng]s seeded by
    [(seed, driver index)], so a fleet's schedule is byte-identical
    across runs and worker-domain placements. *)

type kind = Kv_get | Kv_put | Fs_read | Udp_echo

val kind_name : kind -> string
val all_kinds : kind list

(** Parse a "udp=50,get=25,put=10,fs=15" weight list. *)
val parse_mix : string -> ((kind * int) list, string) result

val mix_to_string : (kind * int) list -> string

type op = {
  op_kind : kind;
  op_key : int;  (** Zipf-sampled key index in [0, keys) *)
  op_client : int;  (** issuing client id in [0, clients) *)
}

type arrivals = Poisson | Bursty
type loop = Open_loop | Closed_loop of { think_ps : int }

type config = {
  clients : int;
  drivers : int;
  rate_per_s : float;  (** aggregate offered load (open loop) *)
  loop : loop;
  arrivals : arrivals;
  mix : (kind * int) list;
  skew : float;  (** Zipf theta in [0, 1) *)
  keys : int;
  warmup_ps : int;  (** arrivals start here (services boot before) *)
  duration_ps : int;  (** measurement window length *)
  seed : int;
}

val default_mix : (kind * int) list

(** One per-request measurement, all timestamps in simulated ps.
    Latency is [s_done - s_sched]. *)
type sample = {
  s_kind : kind;
  s_sched : int;
  s_issue : int;
  s_done : int;
  s_ok : bool;
}

type driver

(** [make_driver cfg i] for [i] in [0, cfg.drivers).  Raises
    [Invalid_argument] on a config with no clients, no drivers, more
    drivers than clients, or an invalid mix. *)
val make_driver : config -> int -> driver

(** Number of clients this driver multiplexes. *)
val driver_clients : driver -> int

(** Pure schedule access (tests): the next [(scheduled_ps, op)], or
    [None] once the schedule is exhausted.  Consumes the item. *)
val next : driver -> (int * op) option

(** Feed a completion back (closed loop re-arms the client after its
    think time; open loop ignores it). *)
val complete : driver -> client:int -> done_ps:int -> unit

(** The driver activity body: replay the schedule, sleeping
    ({!M3v_mux.Act_api.sleep} — the tile runs others meanwhile) until
    each scheduled arrival, then run [issue] and [record] the sample.
    Returns when the schedule is exhausted. *)
val driver_program :
  driver ->
  issue:(op -> bool M3v_sim.Proc.t) ->
  record:(sample -> unit) ->
  unit ->
  unit M3v_sim.Proc.t
