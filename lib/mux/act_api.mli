(** Typed, direct-style API over the activity primitives.

    All functions return [Proc] processes; compose them with
    [M3v_sim.Proc.Syntax].  Communication errors that a real activity
    library would handle internally (credit exhaustion, vDTU TLB misses,
    M3x slow-path fallback) are handled by the runtime — programs written
    against this API are placement- and system-variant-agnostic. *)

open M3v_sim

(** Environment handed to an activity at spawn time. *)
type env = {
  aid : M3v_dtu.Dtu_types.act_id;
  tile : int;
  sys_sgate : int;  (** send endpoint to the controller's syscall gate *)
  sys_rgate : int;  (** receive endpoint for syscall replies *)
}

val compute : int -> unit Proc.t
(** [compute cycles] *)

val send :
  ep:int ->
  ?reply_ep:int ->
  ?vaddr:int ->
  size:int ->
  M3v_dtu.Msg.data ->
  unit Proc.t

(** Wait for the next message on any of [eps]; returns (endpoint, message). *)
val recv : eps:int list -> (int * M3v_dtu.Msg.t) Proc.t

(** Like {!recv} but resolves to [None] if nothing arrived within
    [timeout] (relative).  The runtime arms the deadline only under M3v
    and only while a fault plan is installed ({!M3v_fault.Fault.with_plan});
    otherwise the call waits like {!recv} and never resolves to [None].
    Service clients use this to survive a crashed or wedged server instead
    of blocking forever. *)
val recv_timeout :
  eps:int list -> timeout:Time.t -> (int * M3v_dtu.Msg.t) option Proc.t

val try_recv : eps:int list -> (int * M3v_dtu.Msg.t) option Proc.t

(** Block for the given (relative) duration without occupying the core —
    the tile multiplexes others meanwhile and a timer makes the activity
    runnable at the deadline, taking the core from an activity that only
    polls (M3v mode only).  The load harness' fleet drivers pace their
    arrival schedules with this. *)
val sleep : M3v_sim.Time.t -> unit Proc.t

val reply :
  recv_ep:int ->
  msg:M3v_dtu.Msg.t ->
  ?vaddr:int ->
  size:int ->
  M3v_dtu.Msg.data ->
  unit Proc.t

val ack : ep:int -> M3v_dtu.Msg.t -> unit Proc.t

val mem_read :
  ep:int ->
  off:int ->
  len:int ->
  ?vaddr:int ->
  dst:bytes ->
  ?dst_off:int ->
  unit ->
  unit Proc.t

val mem_write :
  ep:int ->
  off:int ->
  len:int ->
  ?vaddr:int ->
  src:bytes ->
  ?src_off:int ->
  unit ->
  unit Proc.t

val memcpy : int -> unit Proc.t
val yield : unit Proc.t
val now : M3v_sim.Time.t Proc.t
val alloc_buf : int -> Act_ops.buf Proc.t
val touch : ?off:int -> ?len:int -> write:bool -> Act_ops.buf -> unit Proc.t
val acct : string -> unit Proc.t
val log : string -> unit Proc.t

(** Finish the activity immediately with an exit code (reported to the
    controller, like a process exit status).  Never returns. *)
val exit_with : int -> unit Proc.t

(** A full RPC: send with [reply_ep], wait for the reply on it, acknowledge
    it, return the reply. *)
val call :
  sgate:int ->
  reply_ep:int ->
  ?vaddr:int ->
  size:int ->
  M3v_dtu.Msg.data ->
  M3v_dtu.Msg.t Proc.t

(** Like {!call} but with a reply deadline: [None] if the reply did not
    arrive in time (the request may or may not have been processed).  The
    deadline holds only where {!recv_timeout}'s does: under M3v with a
    fault plan installed; otherwise the call waits like {!call}. *)
val call_timeout :
  sgate:int ->
  reply_ep:int ->
  ?vaddr:int ->
  size:int ->
  timeout:Time.t ->
  M3v_dtu.Msg.data ->
  M3v_dtu.Msg.t option Proc.t

(** Issue a system call to the controller and return its reply. *)
val syscall : env -> M3v_kernel.Protocol.sys_req -> M3v_kernel.Protocol.sys_reply Proc.t

(** Like [syscall] but failing hard on [Sys_err] (setup-style calls). *)
val syscall_exn : env -> M3v_kernel.Protocol.sys_req -> M3v_kernel.Protocol.sys_reply Proc.t
