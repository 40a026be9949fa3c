(** The net service (paper, section 4.4).

    A smoltcp-like UDP/IP stack plus the AXI-Ethernet driver, fused into a
    single service activity.  Because the NIC hangs off one specific core,
    the service is always placed on that tile.  Clients get POSIX-like
    sockets over a DTU channel; the service parks [Recvfrom] requests until
    a matching frame arrives from the NIC (interrupt-driven reception). *)

type handle

(** [received] counts the frames the NIC handed to the stack. *)
type stats = { received : int }

val make_handle : unit -> handle
val stats : handle -> stats

(** The service program.  [rgate] receives client requests, [nic_rgate]
    receives frames from the NIC. *)
val program :
  handle ->
  rgate:int ref ->
  nic_rgate:int ref ->
  nic:Nic.t option ref ->
  unit ->
  M3v_mux.Act_api.env ->
  unit M3v_sim.Proc.t
