(** The vDTU's software-loaded TLB (paper, section 3.6).

    The vDTU never walks page tables: on a miss the command fails and the
    activity asks TileMux (via TMCall) to translate and insert the entry
    through the privileged interface.  Entries are tagged with the owning
    activity.  Eviction is FIFO. *)

type t

val create : capacity:int -> t
val capacity : t -> int

(** [lookup t ~act ~vpage ~write] returns the physical page if present with
    sufficient permission.  A present entry with insufficient permission
    fails the lookup but is counted as a permission upgrade, not a true
    miss. *)
val lookup : t -> act:Dtu_types.act_id -> vpage:int -> write:bool -> int option

val insert :
  t -> act:Dtu_types.act_id -> vpage:int -> ppage:int -> perm:Dtu_types.perm -> unit

type entry = { ppage : int; perm : Dtu_types.perm }

(** Live mappings of one activity, sorted by virtual page — migration
    re-installs them on the target DTU in deterministic order. *)
val entries_of_act : t -> Dtu_types.act_id -> (int * entry) list

(** Drop all entries of one activity (on activity exit).  Also purges the
    entries' keys from the eviction FIFO so it stays bounded by the
    capacity across activity switches. *)
val invalidate_act : t -> Dtu_types.act_id -> unit

(** Drop a single page mapping (on unmap/remap); purges the key from the
    eviction FIFO. *)
val invalidate_page : t -> act:Dtu_types.act_id -> vpage:int -> unit

val flush : t -> unit
val entry_count : t -> int

(** Length of the internal eviction FIFO; invariantly at most
    [entry_count], hence bounded by [capacity]. *)
val fifo_length : t -> int

type stats = {
  hits : int;
  misses : int;  (** true misses: no entry for (activity, page) *)
  perm_upgrades : int;
      (** failed lookups where the entry existed but lacked the required
          (write) permission *)
  evictions : int;
}

val stats : t -> stats
