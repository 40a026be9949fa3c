(* [installed] counts the domains that hold a value, and [set] is the
   only writer of [current], so the count moves with every install and
   every restore.  [get] and [on] read the count first and touch
   domain-local storage only when some domain holds a value.  The answer
   is exact: a domain's own install precedes its own reads, and the count
   never drops below the number of domains holding a value.

   [get] and [on] inline into their callers as the count test and a
   branch; the domain-local read behind the branch is [held], kept out of
   line because inlining [Domain.DLS.get] would make every guard large. *)
type 'a t = { current : 'a option Domain.DLS.key; installed : int Atomic.t }

let make () =
  { current = Domain.DLS.new_key (fun () -> None); installed = Atomic.make 0 }

let[@inline never] held t = Domain.DLS.get t.current

let set t v =
  (match (held t, v) with
  | None, Some _ -> Atomic.incr t.installed
  | Some _, None -> Atomic.decr t.installed
  | None, None | Some _, Some _ -> ());
  Domain.DLS.set t.current v

let[@inline] get t = if Atomic.get t.installed = 0 then None else held t

let[@inline] on t = Atomic.get t.installed > 0 && Option.is_some (held t)

let domains t = Atomic.get t.installed

let with_ t v f =
  let outer = held t in
  set t (Some v);
  Fun.protect ~finally:(fun () -> set t outer) f
