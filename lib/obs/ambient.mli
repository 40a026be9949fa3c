(** A run setting held per domain: the trace sink, the metrics registry
    and the fault plan are each one of these.

    Domain-local rather than process-global, so tasks on worker domains
    each run under their own value (or none) without seeing each other's.
    {!get} and {!on} inline into their callers.  While no domain of the
    process holds a value, each is a load of a process-wide count and a
    branch, and allocates nothing; only when some domain holds one do they
    call out to read this domain's value.

    A setting reaches a pool task by one rule, {!task}: the task runs
    under a child forked from its submitter's value, on whatever domain
    runs it, and the child joins back into that value when the submitter
    awaits the task. *)

type 'a t

(** A setting no domain holds yet, with its per-task rule: [fork parent]
    makes a task's child (on the submitting domain, at submission), and
    [join parent child] folds the child back.  [start ()] runs on the
    domain that runs a task holding a child, before the task, and returns
    what runs after it.  Call at module-init time. *)
val make :
  fork:('a -> 'a) -> join:('a -> 'a -> unit) -> start:(unit -> unit -> unit) ->
  'a t

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

(** [task f], called on the submitting domain, forks a child of every
    setting this domain holds.  It returns [f] wrapped to run under
    exactly those children, and no value of any other setting, on
    whichever domain runs it (putting back that domain's own values
    after), and the thunk that joins each child into the value it was
    forked from.  The caller runs the join once, after the task, in the
    order it wants the children merged. *)
val task : (unit -> 'a) -> (unit -> 'a) * (unit -> unit)
