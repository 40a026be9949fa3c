(** Deterministic workload samplers.

    Every sampler draws from an explicit {!M3v_sim.Rng.t}, so equal seeds
    produce byte-identical streams regardless of host, process or worker
    domain — the property the load harness' [--jobs N] determinism bar
    rests on.  The Zipf and mix samplers are the single implementation
    shared by the YCSB generator ({!M3v_apps.Ycsb}) and the fleet driver
    ({!Fleet}). *)

(** Zipfian sampler over [0, n) with exponent [theta] in [0, 1) (default
    0.99, the YCSB standard), using Gray et al.'s quick sampler. *)
module Zipf : sig
  type t

  val create : ?theta:float -> n:int -> M3v_sim.Rng.t -> t
  val sample : t -> int
  val n : t -> int
  val theta : t -> float
end

(** Weighted discrete mix.  One uniform draw in [0, total) is mapped
    through the cumulative weights, so a mix with weights summing to 100
    consumes exactly one [Rng.int rng 100] per sample — the draw
    discipline the YCSB generator has always used. *)
module Mix : sig
  type 'a t

  (** Raises [Invalid_argument] on an empty list, a negative weight, or
      weights summing to zero.  Zero-weight entries are never sampled. *)
  val create : ('a * int) list -> M3v_sim.Rng.t -> 'a t

  val sample : 'a t -> 'a
  val total : 'a t -> int
end

(** One exponential variate with the given mean (rejection-free inverse
    transform; strictly positive). *)
val exponential : M3v_sim.Rng.t -> mean:float -> float

(** Open-loop Poisson arrival process: successive calls to {!Poisson.next}
    return strictly increasing absolute timestamps (ps) whose gaps are
    exponential with mean [1/rate]. *)
module Poisson : sig
  type t

  val create : rate_per_s:float -> start_ps:int -> M3v_sim.Rng.t -> t
  val next : t -> int
end

(** Two-state Markov-modulated Poisson process (bursty arrivals): a calm
    state and a burst state, each with exponential dwell times, arrivals
    Poisson at the state's rate.  [burst] scales the burst-state rate
    (default 4x the nominal rate); the calm-state rate is chosen so the
    long-run mean stays [rate_per_s]. *)
module Mmpp : sig
  type t

  val create :
    ?burst:float ->
    rate_per_s:float ->
    start_ps:int ->
    M3v_sim.Rng.t ->
    t

  val next : t -> int
end
