(** A hash table keyed by ints, for lookups on the event path.

    [Hashtbl]'s generic functions hash a key with [caml_hash] and compare
    it with [caml_compare], two C calls per lookup.  This table hashes and
    compares the int in OCaml.  Buckets are chained as in [Hashtbl]. *)

type 'a t

(** [create n] sizes the table for about [n] bindings; it grows on
    demand. *)
val create : int -> 'a t

val length : 'a t -> int

(** [find t k] raises [Not_found] if [k] is unbound.  A hit allocates
    nothing. *)
val find : 'a t -> int -> 'a

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

(** [replace t k v] binds [k] to [v], replacing any binding of [k]. *)
val replace : 'a t -> int -> 'a -> unit

val remove : 'a t -> int -> unit
