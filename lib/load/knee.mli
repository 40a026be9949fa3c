(** Saturation-knee detection over a latency-vs-offered-load sweep.

    The knee is the first load step where the service stops keeping up:
    either its p99 latency exceeds the SLO, or goodput stops scaling with
    offered load (the marginal goodput per additional offered request
    falls below [min_efficiency]).  Degenerate sweeps are well-defined:
    an all-saturated sweep knees at step 0, a never-saturated sweep (and
    an empty one) reports no knee. *)

type step = {
  k_offered : float;  (** offered load at this step, req/s *)
  k_goodput : float;  (** completions inside the window, req/s *)
  k_p99_us : float;  (** p99 request latency, us *)
}

type verdict = {
  knee : int option;  (** index of the first saturated step *)
  reason : string;  (** human-readable criterion that fired *)
}

(** [detect ~slo_p99_us steps].  [slo_p99_us] defaults to infinity (SLO
    criterion disabled); [min_efficiency] is 0.5 (a step must convert at
    least half of the added offered load into goodput). *)
val detect : ?slo_p99_us:float -> step list -> verdict
