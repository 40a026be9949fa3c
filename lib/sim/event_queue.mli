(** A queue of timestamped events, laid out as parallel arrays
    (structure-of-arrays) with reusable slots: a steady-state push/pop
    cycle at constant depth allocates nothing.

    The order is kept in int arrays only (time, insertion sequence,
    payload slot id); the payloads stay in stable slots.  Reordering
    therefore moves no boxed value and never runs the write barrier: a
    push stores its payloads once, and a pop copies one live entry's
    payloads once, into the slot it frees, so that slot does not keep the
    dropped payloads reachable.

    Up to 32 entries are kept sorted, so a pop is O(1) and a push shifts
    only the entries that pop before it; a deeper queue is a binary
    min-heap until a pop leaves 16.  The mode changes the cost of a push
    or pop, never the order.

    Events with equal timestamps pop in insertion order (FIFO), which keeps
    the simulation deterministic. *)

(** A queue whose entries carry two payloads.  The engine uses this to
    store a (handler, argument) pair per event without boxing them in a
    closure or tuple. *)
type ('a, 'b) t2

(** Single-payload view: [('a, unit) t2]. *)
type 'a t = ('a, unit) t2

(** [capacity] pre-sizes the payload slots (default 256); the queue still
    grows beyond it on demand. *)
val create : ?capacity:int -> unit -> 'a t

val create2 : ?capacity:int -> unit -> ('a, 'b) t2
val is_empty : ('a, 'b) t2 -> bool
val length : ('a, 'b) t2 -> int

(** [push q ~time v] inserts [v] with the given timestamp. *)
val push : 'a t -> time:Time.t -> 'a -> unit

val push2 : ('a, 'b) t2 -> time:Time.t -> 'a -> 'b -> unit

(** {2 Non-allocating accessors}

    The fast path for the dispatch loop: read the earliest entry's fields
    with [next_time]/[top_fst]/[top_snd], then remove it with [drop_min].
    All raise [Invalid_argument] on an empty queue — check [is_empty]
    first. *)

val next_time : ('a, 'b) t2 -> Time.t

val top_fst : ('a, 'b) t2 -> 'a
val top_snd : ('a, 'b) t2 -> 'b
val drop_min : ('a, 'b) t2 -> unit

(** [pop_min q] = [top_fst] + [drop_min]: removes the earliest event and
    returns its first payload without allocating. *)
val pop_min : ('a, 'b) t2 -> 'a

(** [pop q] removes and returns the earliest event, or [None] if empty.
    Allocates its result; kept for tests and non-hot-path users. *)
val pop : 'a t -> (Time.t * 'a) option

(** Drop all pending events and release payload references.  The reached
    capacity is remembered, so a cleared-and-reused queue re-sizes itself
    on the first push. *)
val clear : ('a, 'b) t2 -> unit
