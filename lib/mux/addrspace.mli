(** Per-activity address spaces.

    TileMux isolates tile-local activities with the core's MMU; this module
    is the page table plus a simple virtual-address-region allocator.  The
    physical page number is bookkeeping (data movement happens through the
    DTU with real bytes); what matters for timing is whether a page is
    mapped, because unmapped pages trigger the full TileMux -> pager ->
    controller -> TileMux fault path. *)

type t

val create : unit -> t

(** Reserve a page-aligned virtual region of at least [size] bytes; the
    pages start unmapped (demand paging). *)
val alloc_region : t -> size:int -> int

val translate : t -> vpage:int -> (int * M3v_dtu.Dtu_types.perm) option
val is_mapped : t -> vpage:int -> bool
val map : t -> vpage:int -> ppage:int -> perm:M3v_dtu.Dtu_types.perm -> unit

type stats = { faults : int }

val note_fault : t -> unit
val stats : t -> stats
