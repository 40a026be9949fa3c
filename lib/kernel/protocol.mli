(** Message payloads of the controller's syscall interface and the M3x
    slow path.

    Activities issue "system calls" as DTU messages to the controller
    (paper, section 3.3); these are the request and reply payloads.  OS
    services (file system, network, pager) define their own payload
    constructors in their own modules. *)

type sys_req =
  | Noop  (** measurement aid: a no-op round trip through the controller *)
  | Alloc_mem of { size : int; perm : M3v_dtu.Dtu_types.perm }
      (** allocate physical memory; yields a memory capability *)
  | Create_rgate of { slots : int; slot_size : int }
  | Derive_mem_for of {
      target : M3v_dtu.Dtu_types.act_id;
      src_sel : int;
      off : int;
      len : int;
      perm : M3v_dtu.Dtu_types.perm;
    }
      (** derive a sub-range of the requester's memory capability into
          [target]'s table (how m3fs hands out extents) *)
  | Activate of { sel : int; ep : int option }
      (** configure an endpoint on the requester's tile from a capability *)
  | Revoke of { sel : int }
  | Map_for of {
      target : M3v_dtu.Dtu_types.act_id;
      vpage : int;
      ppage : int;
      perm : M3v_dtu.Dtu_types.perm;
    }
      (** pager requests a mapping; the controller forwards it to the
          TileMux instance responsible for [target] (paper, section 4.3) *)
  | Act_exit of { code : int }

type sys_reply =
  | Ok_unit
  | Ok_sel of int
  | Ok_ep of int
  | Sys_err of string

type M3v_dtu.Msg.data +=
  | Sys of sys_req
  | Sys_reply of sys_reply
  | Mx_fwd of {
      fwd_dst_tile : int;
      fwd_dst_ep : int;
      fwd : M3v_dtu.Msg.t;  (** the original message to deliver *)
    }  (** M3x slow path: forward a message via the controller *)
  | Mx_block  (** M3x: sender has nothing to do until a message arrives *)
  | Mx_yield  (** M3x: voluntary yield, stay ready *)
  | Mx_wake
      (** M3x: a fast-path message arrived for the blocked current activity;
          the controller must resume it *)
  | Tm_map of {
      tm_req_id : int;
      tm_act : M3v_dtu.Dtu_types.act_id;
      tm_vpage : int;
      tm_ppage : int;
      tm_perm : M3v_dtu.Dtu_types.perm;
    }  (** controller -> TileMux: install a page-table entry *)
  | Tm_map_done of { tm_req_id : int }  (** TileMux -> controller *)

(** Wire sizes used for timing. *)
val sys_req_size : sys_req -> int

val sys_reply_size : sys_reply -> int

val pp_sys_req : Format.formatter -> sys_req -> unit
