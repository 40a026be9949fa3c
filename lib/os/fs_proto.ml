type open_flags = { fl_write : bool; fl_create : bool; fl_trunc : bool }

let rdonly = { fl_write = false; fl_create = false; fl_trunc = false }
let wronly = { fl_write = true; fl_create = true; fl_trunc = true }

type fs_req =
  | Open of { path : string; flags : open_flags }
  | Read_ext of { fd : int; off : int }
  | Write_ext of { fd : int; off : int }
  | Read_inline of { fd : int; off : int; len : int }
  | Write_inline of { fd : int; off : int; data : bytes }
  | Close of { fd : int; size : int }
  | Stat of { path : string }
  | Readdir of { path : string }
  | Mkdir of { path : string }
  | Unlink of { path : string }

type fs_rep =
  | R_fd of int
  | R_ext of { sel : int; win_off : int; win_len : int; win_file_off : int }
  | R_eof
  | R_data of bytes
  | R_stat of { size : int; is_dir : bool; blocks : int }
  | R_names of string list
  | R_ok
  | R_err of string

(* The int is a client-chosen tag echoed in the reply, so a client that
   timed out and retried can discard replies to abandoned attempts. *)
type M3v_dtu.Msg.data += Fs of int * fs_req | Fs_rep of int * fs_rep

let () =
  M3v_sim.Checkpoint.register_exts
    [ [%extension_constructor Fs]; [%extension_constructor Fs_rep] ]

let inline_limit = 256

let req_size = function
  | Open { path; _ } -> 16 + String.length path
  | Read_ext _ | Write_ext _ | Close _ -> 24
  | Read_inline _ -> 32
  | Write_inline { data; _ } -> 32 + Bytes.length data
  | Stat { path } | Readdir { path } | Mkdir { path } | Unlink { path } ->
      16 + String.length path

let stat_rep (st : Fs_core.stat) =
  R_stat
    {
      size = st.Fs_core.st_size;
      is_dir = st.Fs_core.st_is_dir;
      blocks = st.Fs_core.st_blocks;
    }

let rep_size = function
  | R_fd _ -> 16
  | R_ext _ -> 40
  | R_eof | R_ok -> 8
  | R_data data -> 16 + Bytes.length data
  | R_stat _ -> 32
  | R_names names ->
      16 + List.fold_left (fun acc n -> acc + String.length n + 1) 0 names
  | R_err e -> 8 + String.length e
