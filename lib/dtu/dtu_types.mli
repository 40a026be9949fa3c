(** Shared DTU-level types: activity ids, permissions, command errors. *)

(** Activities are identified by small integers assigned by the controller.
    Two ids are architecturally reserved. *)
type act_id = int

val invalid_act : act_id

(** TileMux's own activity id: its endpoints (for controller communication)
    are tagged with this id, and the vDTU must be switched to it before
    TileMux can use them (paper, section 4.2). *)
val tilemux_act : act_id

val is_reserved_act : act_id -> bool
val pp_act : Format.formatter -> act_id -> unit

type perm = R | W | RW

val perm_allows_read : perm -> bool
val perm_allows_write : perm -> bool

(** Errors a DTU command can complete with. *)
type error =
  | No_such_ep  (** endpoint id out of range or invalid *)
  | Unknown_ep
      (** endpoint exists but belongs to another activity; the vDTU reports
          the same error as for an invalid endpoint so activities cannot
          probe each other's endpoints (paper, section 3.5) *)
  | Wrong_ep_type  (** e.g. SEND on a receive endpoint *)
  | No_credits  (** send endpoint exhausted its credits *)
  | Msg_too_large
  | Recv_gone  (** remote receive endpoint invalid or buffer full *)
  | Translation_fault of int
      (** vDTU TLB miss for the given virtual page; the activity must ask
          TileMux to translate and then retry (paper, section 3.6) *)
  | Out_of_bounds  (** memory endpoint access outside the window *)
  | No_perm
  | Page_boundary
      (** transfer crosses a page: the vDTU restricts every command's
          source/destination to a single page (paper, section 3.6) *)
  | Timeout
      (** the command's retransmit budget ran out without a completion
          acknowledgement (only possible under fault injection); for SEND
          the credit has been refunded *)

val error_to_string : error -> string

(** Page size used by address spaces, the vDTU TLB and PMP windows. *)
val page_size : int

val page_of_addr : int -> int
val page_offset : int -> int

(** [crosses_page addr len] is true when [addr, addr+len) spans more than
    one page. *)
val crosses_page : int -> int -> bool
