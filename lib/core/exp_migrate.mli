(** Live-migration ablation: an echo server is migrated back and forth
    between tiles while a client drives a paced RPC stream at it.

    Sweeps the request rate and reports per point the completed
    migrations, injected aborts, mean park-to-resume downtime, and the
    end-to-end delivery check: with a blocking-call client on a lossless
    plan, every request must come back exactly once and in sequence —
    [mismatches = 0] and [replies = rounds] witness exactly-once delivery
    through the migration (and through aborted attempts when [faulty]
    installs a [mig_abort] fault plan). *)

type point = {
  rate : int;  (** target request rate, msgs/s *)
  migrations : int;  (** completed live migrations *)
  aborts : int;  (** attempts aborted before the flip *)
  downtime_us : float;  (** mean park-to-resume downtime per attempt *)
  replies : int;  (** in-order replies the client verified *)
  served : int;  (** requests the server handled *)
  mismatches : int;  (** out-of-sequence replies (duplicate/loss witness) *)
  completed : bool;  (** both sides ran to the end before the horizon *)
}

type result = { rounds : int; faulty : bool; points : point list }

(** The sweep clean, then under a [mig_abort] fault plan seeded with
    [seed] plus the point's index. *)
val run :
  ?pool:M3v_par.Par.Pool.t ->
  ?rounds:int ->
  ?rates:int list ->
  ?seed:int ->
  unit ->
  result list

val print : result -> unit
