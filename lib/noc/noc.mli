(** The network-on-chip transport.

    Packets are flit streams pushed over the precomputed route.  Each
    directed link keeps a [free_at] horizon: a packet starts crossing a link
    no earlier than the link is free, which models serialization and
    contention without simulating individual flits.  Delivery invokes a
    callback on the engine at the computed arrival time, so all higher
    protocol layers (DTU transfers, credit returns, external endpoint
    configuration) share one transport with backpressure. *)

type params = {
  flit_bytes : int;  (** payload bytes per flit *)
  ps_per_flit : int;  (** link serialization time per flit *)
  hop_latency_ps : int;  (** router traversal + wire latency per hop *)
  header_flits : int;  (** header overhead per packet *)
}

(** 400 MHz NoC, 16-byte flits, 3-cycle hop latency: tile-to-tile latency in
    the low dozens of nanoseconds, matching the paper's platform. *)
val default_params : params

type t

(** Fault-injection class of a packet.  [Data] packets (DTU messages,
    replies, DMA bursts) are best-effort when a fault plan is installed;
    [Control] packets (completion acks, credit returns, kernel wires)
    model the lossless credit-managed sideband and are never faulted. *)
type kind = Data | Control

(** Packet counters, bumped in place per packet.  [stats] returns a
    snapshot: later packets and [reset_stats] do not change a value
    already taken. *)
type stats = private {
  mutable packets : int;
  mutable payload_bytes : int;
  mutable total_flits : int;
  mutable link_busy_ps : int;
      (** accumulated serialization time over all links *)
}

val create : ?params:params -> M3v_sim.Engine.t -> Topology.t -> t
val topology : t -> Topology.t
val params : t -> params

(** [send t ~src ~dst ~bytes ~on_delivered] injects a [bytes]-byte packet at
    the current time and schedules [on_delivered] at the arrival time.
    [src = dst] models a DTU-internal loopback with a small fixed cost.
    [kind] defaults to [Control] (lossless); callers must mark data-plane
    packets [Data] explicitly to make them eligible for fault injection. *)
val send :
  ?kind:kind ->
  t ->
  src:int ->
  dst:int ->
  bytes:int ->
  on_delivered:(unit -> unit) ->
  unit

(** Pure estimate of an uncontended transfer's latency, used by cost
    accounting and tests. *)
val uncontended_latency : t -> src:int -> dst:int -> bytes:int -> M3v_sim.Time.t

val stats : t -> stats
val reset_stats : t -> unit
