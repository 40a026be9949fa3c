(* Fixed-size Domain worker pool with futures and helping await.

   Determinism comes from the call sites, not from here: tasks are
   independent (each owns its Engine/Rng/Platform) and results are merged
   in submission order by [map]/[all].  The pool only decides *where* a
   task runs, never in what order results are observed.

   Liveness argument for the helping await: a future is only Pending
   while its task is either still in the pool queue (in which case any
   awaiter, including the one that needs it, can pop and run it) or
   already running on some domain (which will complete it, recursively
   helping through any nested awaits).  So an await chain always bottoms
   out in a runnable or running task and a fixed-size pool cannot
   deadlock on nested fan-out.

   Run settings (trace sink, metrics registry, fault plan) follow a task
   by [M3v_obs.Ambient.task]'s one rule: the task runs under children
   forked from its submitter's settings on whichever domain runs it, so
   an awaiting domain may help with any queued task, and the children
   join back at [await]. *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type pool = {
  queue : (unit -> unit) Queue.t; (* protected by [qm] *)
  qm : Mutex.t;
  qcv : Condition.t; (* signalled on push and on shutdown *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  njobs : int;
}

type impl = Seq | Par of pool

module Pool = struct
  type t = impl

  let sequential = Seq
  let jobs = function Seq -> 1 | Par p -> p.njobs

  let rec worker_loop p =
    Mutex.lock p.qm;
    let rec next () =
      if not (Queue.is_empty p.queue) then begin
        let task = Queue.pop p.queue in
        Mutex.unlock p.qm;
        task ();
        worker_loop p
      end
      else if p.closed then Mutex.unlock p.qm
      else begin
        Condition.wait p.qcv p.qm;
        next ()
      end
    in
    next ()

  let create ?jobs:(n = Domain.recommended_domain_count ()) () =
    if n <= 1 then Seq
    else begin
      let p =
        {
          queue = Queue.create ();
          qm = Mutex.create ();
          qcv = Condition.create ();
          closed = false;
          workers = [];
          njobs = n;
        }
      in
      (* The submitting domain is the n-th worker: it helps in [await]. *)
      p.workers <-
        List.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop p));
      Par p
    end

  let shutdown = function
    | Seq -> ()
    | Par p ->
        Mutex.lock p.qm;
        p.closed <- true;
        Condition.broadcast p.qcv;
        Mutex.unlock p.qm;
        let ws = p.workers in
        p.workers <- [];
        List.iter Domain.join ws

  let with_pool ?jobs f =
    let p = create ?jobs () in
    Fun.protect ~finally:(fun () -> shutdown p) (fun () -> f p)
end

type 'a future = {
  state : 'a state Atomic.t;
  fm : Mutex.t;
  fcv : Condition.t;
  home : pool option; (* where to steal work from while awaiting *)
  join : (unit -> unit) Atomic.t;
      (* joins the task's settings into the submitter's; run exactly
         once, at [await], so children join in await (= submission) order
         and parallel output is byte-identical to sequential output *)
}

let completed_future ~join st =
  {
    state = Atomic.make st;
    fm = Mutex.create ();
    fcv = Condition.create ();
    home = None;
    join = Atomic.make join;
  }

let run_to_state f =
  try Done (f ()) with e -> Failed (e, Printexc.get_raw_backtrace ())

let submit pool f =
  let f, join = M3v_obs.Ambient.task f in
  match pool with
  | Seq -> completed_future ~join (run_to_state f)
  | Par p ->
      let fut =
        {
          state = Atomic.make Pending;
          fm = Mutex.create ();
          fcv = Condition.create ();
          home = Some p;
          join = Atomic.make join;
        }
      in
      let task () =
        let st = run_to_state f in
        Atomic.set fut.state st;
        (* Lock-broadcast after the set so an awaiter that saw Pending
           under [fm] is guaranteed to be woken. *)
        Mutex.lock fut.fm;
        Condition.broadcast fut.fcv;
        Mutex.unlock fut.fm
      in
      Mutex.lock p.qm;
      if p.closed then begin
        Mutex.unlock p.qm;
        invalid_arg "Par.submit: pool is shut down"
      end;
      Queue.push task p.queue;
      Condition.signal p.qcv;
      Mutex.unlock p.qm;
      fut

let try_steal p =
  Mutex.lock p.qm;
  let t = if Queue.is_empty p.queue then None else Some (Queue.pop p.queue) in
  Mutex.unlock p.qm;
  t

(* Join the task's settings exactly once.  Only called after the state
   left Pending, so the children are quiescent; the atomic exchange makes
   a second await a no-op. *)
let finalize fut = (Atomic.exchange fut.join ignore) ()

let rec await fut =
  match Atomic.get fut.state with
  | Done v ->
      finalize fut;
      v
  | Failed (e, bt) ->
      finalize fut;
      Printexc.raise_with_backtrace e bt
  | Pending -> (
      match fut.home with
      | Some p -> (
          match try_steal p with
          | Some task ->
              task ();
              await fut
          | None -> block_then_await fut)
      | None -> block_then_await fut)

and block_then_await fut =
  Mutex.lock fut.fm;
  (match Atomic.get fut.state with
  | Pending -> Condition.wait fut.fcv fut.fm
  | Done _ | Failed _ -> ());
  Mutex.unlock fut.fm;
  await fut

let all pool fs = List.map (submit pool) fs |> List.map await
let map pool f xs = List.map (fun x -> submit pool (fun () -> f x)) xs |> List.map await

let progress_mutex = Mutex.create ()

let progress line =
  Mutex.lock progress_mutex;
  prerr_string line;
  prerr_newline ();
  flush stderr;
  Mutex.unlock progress_mutex
