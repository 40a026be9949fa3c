(** Capabilities (paper, section 3.3).

    The controller decides which communication channels exist via
    capability-based access control.  Capabilities form a derivation tree:
    deriving or delegating creates children, and revocation removes a whole
    subtree, deactivating any endpoints that were configured from revoked
    capabilities. *)

(** A receive-gate object.  [loc] is set once the gate has been activated on
    an endpoint; send gates can only be activated towards located receive
    gates. *)
type rgate = {
  rg_slots : int;
  rg_slot_size : int;
  rg_ack_batch : int option;
      (** [Some n]: a shared multi-producer ring, against which many sgates
          may be delegated, whose receiver refunds credits in batches of
          [n] ({!M3v_dtu.Ep.batch}); [None]: a classic receive gate *)
  mutable rg_loc : (int * int) option;  (** (tile, endpoint) once activated *)
}

type obj =
  | Rgate of rgate
  | Sgate of { sg_rgate : rgate; sg_label : int; sg_credits : int }
  | Mgate of {
      mg_tile : int;  (** memory tile *)
      mg_base : int;
      mg_size : int;
      mg_perm : M3v_dtu.Dtu_types.perm;
    }

type t = {
  sel : int;  (** selector in the owner's table *)
  owner : M3v_dtu.Dtu_types.act_id;
  obj : obj;
  mutable children : t list;
  mutable parent : t option;
  mutable live : bool;
  mutable activated : (int * int) list;  (** endpoints configured from this cap *)
}

val make : sel:int -> owner:M3v_dtu.Dtu_types.act_id -> obj -> t

(** [derive parent ~sel ~owner obj] creates a child capability (delegation
    and memory derivation both go through here). *)
val derive : t -> sel:int -> owner:M3v_dtu.Dtu_types.act_id -> obj -> t

(** [derive_mem parent ~sel ~owner ~off ~len ~perm] derives a sub-range of a
    memory capability, intersecting permissions.  Returns [Error] if
    [parent] is not a live memory capability or the range is out of
    bounds. *)
val derive_mem :
  t ->
  sel:int ->
  owner:M3v_dtu.Dtu_types.act_id ->
  off:int ->
  len:int ->
  perm:M3v_dtu.Dtu_types.perm ->
  (t, string) result

(** Record that an endpoint was configured from this capability. *)
val note_activation : t -> tile:int -> ep:int -> unit

(** Revoke the capability and its whole subtree.  Returns all capabilities
    killed (for table cleanup) and all (tile, endpoint) pairs that must be
    invalidated. *)
val revoke : t -> t list * (int * int) list

(** Number of live capabilities in the subtree rooted here (including the
    root if live). *)
val live_count : t -> int
