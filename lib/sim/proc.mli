(** Continuation-monad processes.

    Activity, service, and benchmark code is written in direct style using
    [let*] over primitive operations; a runtime (TileMux-backed M3v tile,
    the M3x variant, or the Linux model) interprets the resulting [action]
    tree, charging simulated time for each primitive and blocking/resuming
    processes as the protocol demands.

    The operation and response types are extensible variants so that each
    runtime can contribute its own primitives without a central registry. *)

type op = ..
type resp = ..

type resp += Unit | Error of string

(** A suspended process: either finished or requesting a primitive together
    with the continuation to run on its response. *)
type action = Finished | Request of op * (resp -> action)

(** A process computing an ['a]. *)
type 'a t = ('a -> action) -> action

val return : 'a -> 'a t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val map : ('a -> 'b) -> 'a t -> 'b t

module Syntax : sig
  val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
  val ( let+ ) : 'a t -> ('a -> 'b) -> 'b t
end

(** [perform op decode] requests primitive [op] and decodes the runtime's
    response.  [decode] should raise (via [decode_error]) on a response of
    the wrong shape — that is a runtime bug, not a recoverable error. *)
val perform : op -> (resp -> 'a) -> 'a t

(** Raise a [Failure] describing an unexpected response shape. *)
val decode_error : string -> resp -> 'a

(** Turn a complete process into an action tree for a runtime. *)
val run : unit t -> action

(** Sequence a list of processes. *)
val iter_list : ('a -> unit t) -> 'a list -> unit t

(** [repeat n f] runs [f i] for [i = 0 .. n-1]. *)
val repeat : int -> (int -> unit t) -> unit t

(** Fold over a list inside the monad. *)
val fold_list : ('acc -> 'a -> 'acc t) -> 'acc -> 'a list -> 'acc t
