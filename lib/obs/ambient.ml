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

(* The per-task rule.  Each setting registers how a task forks a child
   from the submitter's value and how that child joins back.  [task] runs
   on the submitter: it forks every setting the submitter holds and
   returns the task wrapped to run under exactly those children, and the
   thunk that joins them.  Registration happens at module init on the
   main domain, before any pool exists, so a plain ref is safe. *)
type part = { enter : unit -> unit -> unit; join : unit -> unit }

let rules : (unit -> part) list ref = ref []

let make ~fork ~join ~start =
  let t =
    { current = Domain.DLS.new_key (fun () -> None); installed = Atomic.make 0 }
  in
  let rule () =
    let parent = get t in
    let child = Option.map fork parent in
    let enter () =
      let outer = held t in
      set t child;
      let finish = if Option.is_some child then start () else ignore in
      fun () ->
        finish ();
        set t outer
    in
    let join () =
      match (parent, child) with
      | Some p, Some c -> join p c
      | None, _ | _, None -> ()
    in
    { enter; join }
  in
  rules := rule :: !rules;
  t

let task f =
  let parts = List.map (fun rule -> rule ()) !rules in
  let run () =
    let leaves = List.map (fun p -> p.enter ()) parts in
    Fun.protect
      ~finally:(fun () -> List.iter (fun leave -> leave ()) (List.rev leaves))
      f
  in
  (run, fun () -> List.iter (fun p -> p.join ()) parts)
