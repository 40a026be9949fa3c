(* Structure-of-arrays binary min-heap with stable payload slots.

   The heap itself is three int arrays in heap order: timestamps,
   insertion sequence numbers, and [slot], the id of the slot that holds
   the entry's two payloads in [xs]/[ys].  A sift therefore moves only
   ints: no step of it stores a boxed value, so none runs OCaml's write
   barrier ([caml_modify]).  A push writes its two payloads once, into a
   free slot; a pop copies two payloads once (see [drop_min]).  Slots are
   reused, so a steady-state push/pop cycle at constant queue depth
   allocates nothing, and the accessors ([next_time], [top_fst],
   [top_snd], [drop_min]) return unboxed values.

   [slot] is a permutation of the slot ids: positions [0, size) are the
   heap's entries and positions [size, capacity) are the free slots, so
   a push takes the free slot at position [size], which is also where
   its sift-up starts.  No separate free list is kept.

   Two payload slots let the engine store a (handler, argument) pair per
   event without a closure; single-payload users ([push]/[pop]) are the
   same heap with [ys] fixed to [unit].

   Ordering: by time, then by insertion sequence — events with equal
   timestamps pop in FIFO order, which keeps the simulation
   deterministic.  The sift loops move a hole instead of swapping, so
   each step is one copy per array rather than three. *)

type ('a, 'b) t2 = {
  mutable times : int array; (* Time.t = int; heap order *)
  mutable seqs : int array; (* heap order *)
  mutable slot : int array; (* heap order, then the free slot ids *)
  mutable xs : 'a array; (* by slot id *)
  mutable ys : 'b array; (* by slot id *)
  mutable size : int;
  mutable next_seq : int;
  mutable hint : int; (* capacity for the next (re-)allocation *)
}

type 'a t = ('a, unit) t2

let default_capacity = 256

let create2 ?(capacity = default_capacity) () =
  {
    times = [||];
    seqs = [||];
    slot = [||];
    xs = [||];
    ys = [||];
    size = 0;
    next_seq = 0;
    hint = max 1 capacity;
  }

let create ?capacity () = create2 ?capacity ()
let is_empty q = q.size = 0
let length q = q.size

(* Payload arrays need a fill value, so allocation is deferred to the
   first push (and sized by [hint], pre-sizing the steady state).  The
   queue is full, so every old slot id is in use; the new ids join the
   free region in order. *)
let ensure_room q a b =
  let cap = Array.length q.times in
  if q.size = cap then begin
    let ncap = max q.hint (2 * cap) in
    let nt = Array.make ncap 0 and ns = Array.make ncap 0 in
    let nslot = Array.init ncap Fun.id in
    let nx = Array.make ncap a and ny = Array.make ncap b in
    Array.blit q.times 0 nt 0 cap;
    Array.blit q.seqs 0 ns 0 cap;
    Array.blit q.slot 0 nslot 0 cap;
    Array.blit q.xs 0 nx 0 cap;
    Array.blit q.ys 0 ny 0 cap;
    q.times <- nt;
    q.seqs <- ns;
    q.slot <- nslot;
    q.xs <- nx;
    q.ys <- ny;
    q.hint <- ncap
  end

let take_seq q =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  seq

let push2 q ~time a b =
  ensure_room q a b;
  let seq = take_seq q in
  let i = ref q.size in
  let s = Array.unsafe_get q.slot !i in
  Array.unsafe_set q.xs s a;
  Array.unsafe_set q.ys s b;
  q.size <- q.size + 1;
  (* Sift the hole up: only strictly-later parents move down — an
     equal-time parent has a smaller seq and must stay above (FIFO). *)
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = Array.unsafe_get q.times p in
    if tp > time then begin
      Array.unsafe_set q.times !i tp;
      Array.unsafe_set q.seqs !i (Array.unsafe_get q.seqs p);
      Array.unsafe_set q.slot !i (Array.unsafe_get q.slot p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set q.times !i time;
  Array.unsafe_set q.seqs !i seq;
  Array.unsafe_set q.slot !i s

let push q ~time v = push2 q ~time v ()

let next_time q =
  if q.size = 0 then invalid_arg "Event_queue.next_time: empty queue";
  Array.unsafe_get q.times 0

let top_seq q =
  if q.size = 0 then invalid_arg "Event_queue.top_seq: empty queue";
  Array.unsafe_get q.seqs 0

let top_fst q =
  if q.size = 0 then invalid_arg "Event_queue.top_fst: empty queue";
  Array.unsafe_get q.xs (Array.unsafe_get q.slot 0)

let top_snd q =
  if q.size = 0 then invalid_arg "Event_queue.top_snd: empty queue";
  Array.unsafe_get q.ys (Array.unsafe_get q.slot 0)

let drop_min q =
  if q.size = 0 then invalid_arg "Event_queue.drop_min: empty queue";
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    (* Re-insert the last entry at the root hole, sifting down; the
       root's slot goes to position [n], the first free one. *)
    let freed = Array.unsafe_get q.slot 0 in
    let time = Array.unsafe_get q.times n in
    let seq = Array.unsafe_get q.seqs n in
    let s = Array.unsafe_get q.slot n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let tl = Array.unsafe_get q.times l
            and tr = Array.unsafe_get q.times r in
            if
              tr < tl
              || (tr = tl && Array.unsafe_get q.seqs r < Array.unsafe_get q.seqs l)
            then r
            else l
          end
          else l
        in
        let tc = Array.unsafe_get q.times c in
        if tc < time || (tc = time && Array.unsafe_get q.seqs c < seq) then begin
          Array.unsafe_set q.times !i tc;
          Array.unsafe_set q.seqs !i (Array.unsafe_get q.seqs c);
          Array.unsafe_set q.slot !i (Array.unsafe_get q.slot c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set q.times !i time;
    Array.unsafe_set q.seqs !i seq;
    Array.unsafe_set q.slot !i s;
    Array.unsafe_set q.slot n freed;
    (* The freed slot takes a copy of the new root's still-live payloads,
       so it does not keep the dropped ones reachable. *)
    let top = Array.unsafe_get q.slot 0 in
    Array.unsafe_set q.xs freed (Array.unsafe_get q.xs top);
    Array.unsafe_set q.ys freed (Array.unsafe_get q.ys top)
  end

let pop_min q =
  let v = top_fst q in
  drop_min q;
  v

let pop q =
  if q.size = 0 then None
  else begin
    let time = Array.unsafe_get q.times 0 in
    let v = top_fst q in
    drop_min q;
    Some (time, v)
  end

let clear q =
  (* Drop the arrays so a cleared queue retains no dead payloads, but
     remember the reached capacity: the next push re-allocates at full
     size, so a reset-and-reuse engine pre-sizes itself. *)
  q.hint <- max q.hint (Array.length q.times);
  q.times <- [||];
  q.seqs <- [||];
  q.slot <- [||];
  q.xs <- [||];
  q.ys <- [||];
  q.size <- 0;
  q.next_seq <- 0
