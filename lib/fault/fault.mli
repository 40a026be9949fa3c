(** Deterministic fault injection ("chaos") layer.

    A fault plan combines a {!spec} — NoC drop/duplicate/delay rates, DTU
    command glitch rate, and crash/hang budgets for activities — with a
    dedicated {!M3v_sim.Rng} stream.  Installed on a domain (like the
    trace sink), it is consulted by the NoC, the DTU and TileMux at
    injection points.  Decisions are drawn in simulation order, so a given
    spec and seed reproduce the same fault schedule exactly.

    Fault model: only the {e data plane} (message, reply and DMA packets)
    is best-effort; the control sideband (completion acks, credit returns,
    kernel wires) is lossless.  A send timeout therefore implies the
    message never occupied a receive slot, making the DTU's
    refund-credit-on-timeout recovery credit-safe.

    When no domain has a plan installed, every hook short-circuits on one
    atomic load — runs without [--faults] are bit-identical to a build
    without this library. *)

type spec = {
  drop : float;  (** per-data-packet drop probability *)
  dup : float;  (** per-data-packet duplication probability *)
  delay : float;  (** per-data-packet extra-delay probability *)
  delay_ps : int;  (** max injected delay, ps (uniform in [1, delay_ps]) *)
  cmd_fail : float;  (** transient DTU command failure probability *)
  crash : int;  (** activity crashes to inject, per plan *)
  crash_p : float;  (** per-TMCall-boundary crash probability *)
  hang : int;  (** activity hangs to inject, per plan *)
  hang_p : float;  (** per-TMCall-boundary hang probability *)
  mig_abort : int;  (** migration aborts to inject, per plan *)
  mig_abort_p : float;  (** per-abortable-phase abort probability *)
}

(** No faults: every rate and budget zero.  [delay_ps], [crash_p],
    [hang_p] and [mig_abort_p] keep defaults that act only once [delay] or
    a budget is set. *)
val none : spec

(** Parse a ["drop=0.01,dup=0.005,crash=2"]-style spec string.  Unset keys
    keep their {!none} defaults. *)
val parse : string -> (spec, string) result

(** The spec as [parse] reads it: every field that differs from {!none},
    and [delay_ps] whenever [delay > 0]; ["none"] for {!none}.
    [parse (spec_to_string s)] is [Ok s]. *)
val spec_to_string : spec -> string

type stats = {
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable cmd_glitches : int;
  mutable crashes_injected : int;
  mutable hangs_injected : int;
  mutable mig_aborts_injected : int;
}

type t

val create : ?seed:int -> spec -> t
val stats : t -> stats
val spec : t -> spec

(** {1 Installation} *)

(** [with_plan t f] runs [f] with [t] as this domain's plan, then puts
    back the plan [f] replaced (or none), on return or exception.

    Pool tasks take the plan by {!M3v_obs.Ambient}'s per-task rule: each
    task runs under a child plan of its own, with the spec's whole crash,
    hang and mig_abort budgets, drawing from a stream seeded from the
    parent's seed and the child's place among the parent's forks.  The
    child's tallies add into the parent's {!stats} when the submitter
    awaits the task, so a run's faults and tallies do not depend on which
    domain runs which task. *)
val with_plan : t -> (unit -> 'a) -> 'a

(** Whether a plan is installed on this domain.  Injection points and
    recovery machinery (retransmit timers, watchdogs, RPC deadlines) check
    this first so the fault-free fast path stays untouched.  Exact on
    every domain (see {!M3v_obs.Ambient.on}). *)
val on : unit -> bool

(** The number of domains that have a plan installed now (see
    {!M3v_obs.Ambient.domains}). *)
val installed_domains : unit -> int

(** Exempt activity [act] from crash/hang injection (e.g. the pager). *)
val protect : t -> act:int -> unit

(** {1 Decision hooks} — deterministic draws from the plan's RNG.  Each
    injected fault is counted and emitted as a ["fault"] tracepoint. *)

type noc_fate = Deliver | Drop | Duplicate | Delay of int

(** Fate of one data-plane NoC packet. *)
val noc_fate : now:int -> src:int -> dst:int -> noc_fate

(** Whether a DTU command issue glitches transiently (the DTU retries). *)
val cmd_fails : now:int -> tile:int -> bool

type act_fate = Crash | Hang

(** Fate of activity [act] at a TMCall boundary; [None] almost always. *)
val act_fate : now:int -> tile:int -> act:int -> act_fate option

(** Whether to abort an in-progress migration of [act], drawn once per
    abortable phase boundary (before the atomic endpoint flip — after it
    the protocol can only roll forward).  Budgeted by [spec.mig_abort]. *)
val mig_fate : now:int -> tile:int -> act:int -> phase:string -> bool

val pp_stats : Format.formatter -> stats -> unit
