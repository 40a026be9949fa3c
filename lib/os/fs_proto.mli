(** Wire protocol between m3fs clients and the m3fs service. *)

type open_flags = { fl_write : bool; fl_create : bool; fl_trunc : bool }

val rdonly : open_flags
val wronly : open_flags  (** create + truncate, like O_WRONLY|O_CREAT|O_TRUNC *)

type fs_req =
  | Open of { path : string; flags : open_flags }
  | Read_ext of { fd : int; off : int }
      (** request direct access to the extent containing [off] *)
  | Write_ext of { fd : int; off : int }
      (** like [Read_ext] but allocates (and clears) blocks as needed *)
  | Read_inline of { fd : int; off : int; len : int }
      (** small read served inline in the reply (metadata-style traffic) *)
  | Write_inline of { fd : int; off : int; data : bytes }
  | Close of { fd : int; size : int }
  | Stat of { path : string }
  | Readdir of { path : string }
  | Mkdir of { path : string }
  | Unlink of { path : string }

type fs_rep =
  | R_fd of int
  | R_ext of {
      sel : int;  (** memory capability in the {e client}'s table *)
      win_off : int;  (** offset of [off] within the window *)
      win_len : int;  (** window length in bytes *)
      win_file_off : int;  (** file offset of the window start *)
    }
  | R_eof
  | R_data of bytes
  | R_stat of { size : int; is_dir : bool; blocks : int }
  | R_names of string list
  | R_ok
  | R_err of string

(** Requests carry a client-chosen tag that the service echoes in the
    reply.  Under fault injection a client can time out, retry and later
    receive the reply to the abandoned attempt; the tag lets it discard
    such stale replies instead of pairing them with the wrong request. *)
type M3v_dtu.Msg.data += Fs of int * fs_req | Fs_rep of int * fs_rep

(** The [R_stat] reply for a file's status. *)
val stat_rep : Fs_core.stat -> fs_rep

(** Wire sizes for the timing model. *)
val req_size : fs_req -> int

val rep_size : fs_rep -> int

(** Maximum payload the inline read/write path accepts. *)
val inline_limit : int
