(** A run setting held per domain: the trace sink, the metrics registry
    and the fault plan are each one of these.

    Domain-local rather than process-global, so tasks on worker domains
    each run under their own value (or none) without seeing each other's.
    While no domain of the process holds a value, {!get} and {!on} are one
    atomic load of a process-wide count and allocate nothing; only when
    some domain holds one do they also read this domain's value. *)

type 'a t

(** A setting no domain holds yet.  Call at module-init time. *)
val make : unit -> 'a t

(** This domain's value, if any. *)
val get : 'a t -> 'a option

(** Whether this domain holds a value.  Exact on every domain. *)
val on : 'a t -> bool

(** The number of domains that hold a value now.  For tests: a count left
    above 0 changes no result, but keeps every {!on} on its slow path. *)
val domains : 'a t -> int

(** [with_ t v f] runs [f] with [v] installed on this domain, and puts
    back whatever this domain held before, a value or none, on return or
    exception.  Installs therefore nest. *)
val with_ : 'a t -> 'a -> (unit -> 'b) -> 'b
