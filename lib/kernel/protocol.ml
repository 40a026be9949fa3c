type sys_req =
  | Noop
  | Alloc_mem of { size : int; perm : M3v_dtu.Dtu_types.perm }
  | Create_rgate of { slots : int; slot_size : int }
  | Derive_mem_for of {
      target : M3v_dtu.Dtu_types.act_id;
      src_sel : int;
      off : int;
      len : int;
      perm : M3v_dtu.Dtu_types.perm;
    }
  | Activate of { sel : int; ep : int option }
  | Revoke of { sel : int }
  | Map_for of {
      target : M3v_dtu.Dtu_types.act_id;
      vpage : int;
      ppage : int;
      perm : M3v_dtu.Dtu_types.perm;
    }
  | Act_exit of { code : int }

type sys_reply = Ok_unit | Ok_sel of int | Ok_ep of int | Sys_err of string

type M3v_dtu.Msg.data +=
  | Sys of sys_req
  | Sys_reply of sys_reply
  | Mx_fwd of {
      fwd_dst_tile : int;
      fwd_dst_ep : int;
      fwd : M3v_dtu.Msg.t;
    }
  | Mx_block
  | Mx_yield
  | Mx_wake
  | Tm_map of {
      tm_req_id : int;
      tm_act : M3v_dtu.Dtu_types.act_id;
      tm_vpage : int;
      tm_ppage : int;
      tm_perm : M3v_dtu.Dtu_types.perm;
    }
  | Tm_map_done of { tm_req_id : int }

let () =
  M3v_sim.Checkpoint.register_exts
    [
      [%extension_constructor Sys];
      [%extension_constructor Sys_reply];
      [%extension_constructor Mx_fwd];
      [%extension_constructor Mx_block];
      [%extension_constructor Mx_yield];
      [%extension_constructor Mx_wake];
      [%extension_constructor Tm_map];
      [%extension_constructor Tm_map_done];
    ]

let sys_req_size = function
  | Noop -> 8
  | Alloc_mem _ -> 24
  | Create_rgate _ -> 24
  | Derive_mem_for _ -> 48
  | Activate _ -> 24
  | Revoke _ -> 16
  | Map_for _ -> 40
  | Act_exit _ -> 16

let sys_reply_size = function
  | Ok_unit -> 8
  | Ok_sel _ | Ok_ep _ -> 16
  | Sys_err s -> 8 + String.length s

let pp_sys_req fmt = function
  | Noop -> Format.pp_print_string fmt "noop"
  | Alloc_mem { size; _ } -> Format.fprintf fmt "alloc_mem(%d)" size
  | Create_rgate { slots; slot_size } ->
      Format.fprintf fmt "create_rgate(%dx%d)" slots slot_size
  | Derive_mem_for { target; src_sel; off; len; _ } ->
      Format.fprintf fmt "derive_mem_for(act%d, sel%d, +%#x, %#x)" target src_sel
        off len
  | Activate { sel; ep } ->
      Format.fprintf fmt "activate(sel%d%s)" sel
        (match ep with Some e -> Printf.sprintf ", ep%d" e | None -> "")
  | Revoke { sel } -> Format.fprintf fmt "revoke(sel%d)" sel
  | Map_for { target; vpage; ppage; _ } ->
      Format.fprintf fmt "map_for(act%d, v%#x -> p%#x)" target vpage ppage
  | Act_exit { code } -> Format.fprintf fmt "exit(%d)" code
