(** Ablation studies for the design decisions the paper (and DESIGN.md)
    call out.  Each isolates one knob and shows why the chosen design point
    works:

    - {b extent size} (paper 6.3 caps extents at 64 blocks): sequential
      read throughput as a function of the cap — small extents degenerate
      into one RPC per block, the M3 design's whole point;
    - {b vDTU TLB capacity} (paper 3.6: a small software-loaded TLB):
      translation-fault rate and throughput when a sender's working set
      exceeds the TLB;
    - {b NoC topology} (paper 4.1: a 2x2 star-mesh): RPC latency and
      throughput on star-mesh vs a single crossbar router vs a ring;
    - {b M3x endpoint-state size} (paper 3.1: why M3v avoids saving DTU
      state): M3x slow-path throughput as the per-activity endpoint count
      (and hence remote save/restore volume) grows. *)

type row = { knob : string; value : float; metric : string }

type result = { study : string; rows : row list }

val extent_size : ?caps:int list -> unit -> result

val run_all : ?pool:M3v_par.Par.Pool.t -> unit -> result list
val print : result -> unit
