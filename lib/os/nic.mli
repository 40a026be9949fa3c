(** The on-chip NIC and the external peer machine.

    The paper's platform attaches an AXI Ethernet NIC to one processing
    tile and connects it by a direct cable to an AMD Ryzen machine
    (sections 4.1 and A.3.2).  We model the NIC (DMA + interrupt-driven
    reception), the gigabit wire (serialization + latency), and the remote
    host, which can echo packets after a turnaround delay (UDP latency
    benchmark), silently consume them (voice assistant, cloud service), or
    drop them with a given probability (failure injection). *)

type host_behavior =
  | Echo of { turnaround : M3v_sim.Time.t }
      (** remote peer echoes every packet back after [turnaround] *)
  | Sink  (** remote peer consumes packets *)

type t

(** [create ~engine ~host ()] — [dtu] is the DTU of the tile the NIC is
    attached to (required for gate-based delivery; the Linux model uses
    {!set_rx_handler} instead); [ps_per_byte] defaults to 1 Gb/s
    (8000 ps/byte). *)
val create :
  engine:M3v_sim.Engine.t ->
  ?dtu:M3v_dtu.Dtu.t ->
  ?wire_latency:M3v_sim.Time.t ->
  ?ps_per_byte:int ->
  ?drop_probability:float ->
  host:host_behavior ->
  unit ->
  t

(** Receive endpoint (on the NIC's tile) where received frames are
    announced to the driver. *)
val set_rx_gate : t -> int -> unit

(** Alternative delivery for the Linux model: received frames are handed
    to the in-kernel driver directly instead of a DTU gate. *)
val set_rx_handler : t -> (Net_proto.packet -> unit) -> unit

(** Transmit a frame: DMA from the driver already happened; this charges
    wire serialization/latency and hands the packet to the remote host. *)
val transmit : t -> Net_proto.packet -> unit

(** Make the remote host send an unsolicited packet (request generators). *)
val host_send : t -> Net_proto.packet -> unit

(** Frame counters.  [stats] returns a snapshot: later traffic does not
    change a value already taken. *)
type stats = private {
  mutable tx : int;
  mutable rx : int;
  mutable tx_bytes : int;
  mutable rx_bytes : int;
  mutable dropped : int;
}

val stats : t -> stats
