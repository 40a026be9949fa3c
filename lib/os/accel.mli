(** Autonomous accelerators (paper sections 2.2 and 8; M3x's Figure 2).

    An accelerator tile carries fixed-function logic behind a plain DTU:
    once the controller has wired its receive endpoint and a send endpoint
    to the next pipeline stage, the accelerator runs {e autonomously} —
    it consumes messages, transforms them at its fixed throughput, and
    forwards the results without any CPU involvement.  M3v inherits this
    from M3x but does not multiplex accelerator tiles (their DTUs are not
    virtualized); each accelerator serves one activity's context. *)

type t

(** [attach ~engine ~dtu ~rgate ~out_ep ~ns_per_byte ~transform ()] wires
    fixed-function logic to an accelerator tile's DTU.  Messages arriving
    on [rgate] are processed for [ns_per_byte] per payload byte, then
    [transform payload] is sent through [out_ep].  A message whose data is
    not [Data] is forwarded untouched (end-of-stream markers). *)
val attach :
  engine:M3v_sim.Engine.t ->
  dtu:M3v_dtu.Dtu.t ->
  rgate:int ->
  out_ep:int ->
  ns_per_byte:int ->
  transform:(bytes -> bytes) ->
  unit ->
  t

type M3v_dtu.Msg.data += Data of bytes | End_of_stream

val processed : t -> int
val bytes_in : t -> int
