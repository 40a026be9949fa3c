(* Structure-of-arrays event queue with stable payload slots.

   The order is kept in three int arrays: timestamps, insertion sequence
   numbers, and [slot], the id of the slot that holds the entry's two
   payloads in [xs]/[ys].  Reordering therefore moves only ints: no step
   of it stores a boxed value, so none runs OCaml's write barrier
   ([caml_modify]).  A push writes its two payloads once, into a free
   slot; a pop copies two payloads once (see [drop_min]).  Slots are
   reused, so a steady-state push/pop cycle at constant queue depth
   allocates nothing, and the accessors ([next_time], [top_fst],
   [top_snd], [drop_min]) return unboxed values.

   [slot] is a permutation of the slot ids: positions [0, size) are the
   queued entries and positions [size, capacity) are the free slots, so
   a push takes the free slot at position [size], which is also where
   its entry starts moving.  No separate free list is kept.

   Two modes share these arrays.  While shallow, the entries are sorted
   by [(time, seq)] with the earliest last: a pop takes position
   [size - 1], whose slot is then already the first free one, and a push
   shifts up only the entries that pop before it.  While deep, they form
   a binary min-heap with the earliest at position 0.  The earliest entry
   is at [(size - 1) land mask] in both, with [mask] all ones while
   sorted and 0 while a heap, so the accessors do not branch on the
   mode.  Reversed, a sorted array is a valid heap; a heapsort turns a
   heap back into a sorted array.

   Two payload slots let the engine store a (handler, argument) pair per
   event without a closure; single-payload users ([push]/[pop]) are the
   same queue with [ys] fixed to [unit].  The payload arrays' element
   type is [any], not the payloads' own type; see below.

   Ordering: by time, then by insertion sequence — events with equal
   timestamps pop in FIFO order, which keeps the simulation
   deterministic.  Every reordering moves a hole instead of swapping, so
   each step is one copy per array rather than three. *)

(* The payload arrays' element type.  An array of a type variable makes
   ocamlopt test, at every read and write, whether the array is a flat
   float array.  A record type tells it that these arrays hold pointers
   and immediates only, so a read is a plain load and a write goes
   straight to [caml_modify].  No [any] is ever built: [inj] and [prj]
   coerce the payloads, and a boxed float is stored as its pointer.  The
   arrays must therefore never be flat float arrays; see [grow]. *)
type any = { never_built : unit }

let[@inline] inj (x : 'a) : any = Obj.magic x
let[@inline] prj (x : any) : 'a = Obj.magic x

(* ['a] and ['b] are the types of the payloads stored as [any]. *)
type ('a, 'b) t2 = {
  mutable times : int array; (* Time.t = int; queue order *)
  mutable seqs : int array; (* queue order *)
  mutable slot : int array; (* queue order, then the free slot ids *)
  mutable xs : any array; (* by slot id *)
  mutable ys : any array; (* by slot id *)
  mutable size : int;
  mutable mask : int; (* -1 while sorted, 0 while a heap *)
  mutable next_seq : int;
  mutable hint : int; (* capacity for the next (re-)allocation *)
}

type 'a t = ('a, unit) t2

let default_capacity = 256

(* The mode thresholds.  Fault-free runs hold at most 15 events at any
   dispatch (the five perfbench workloads, fig6-fig10 and fanin), so
   they stay sorted.  Only the timers a fault plan arms go deeper
   ([fig9 --faults drop=0.01] reaches 42,283), where a push would shift
   thousands of entries.  The gap between the two keeps a queue that
   hovers near one of them from switching on every step. *)
let heap_above = 32
let sorted_at = 16

let create2 ?(capacity = default_capacity) () =
  {
    times = [||];
    seqs = [||];
    slot = [||];
    xs = [||];
    ys = [||];
    size = 0;
    mask = -1;
    next_seq = 0;
    hint = max 1 capacity;
  }

let create ?capacity () = create2 ?capacity ()
let is_empty q = q.size = 0
let length q = q.size

(* [Array.make]'s fill for a payload array: the payload itself, unless
   it is a boxed float, from which [Array.make] would build a flat float
   array. *)
let fill (x : any) =
  if Obj.tag (Obj.repr x) = Obj.double_tag then inj () else x

(* A push into a full queue grows it first.  Payload arrays need a fill
   value, so allocation is deferred to the first push (and sized by
   [hint], pre-sizing the steady state).  The queue is full, so every old
   slot id is in use; the new ids join the free region in order.  The
   push tests for room itself: calling a function on every push to test
   it cost 3-4 ns per push/pop cycle in a microbenchmark. *)
let grow q a b =
  let cap = Array.length q.times in
  let ncap = max q.hint (2 * cap) in
  let nt = Array.make ncap 0 and ns = Array.make ncap 0 in
  let nslot = Array.init ncap Fun.id in
  let nx = Array.make ncap (fill a) and ny = Array.make ncap (fill b) in
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

(* Copy the entry at position [src] into the hole at [dst]. *)
let[@inline] move q src dst =
  Array.unsafe_set q.times dst (Array.unsafe_get q.times src);
  Array.unsafe_set q.seqs dst (Array.unsafe_get q.seqs src);
  Array.unsafe_set q.slot dst (Array.unsafe_get q.slot src)

let[@inline] place q i time seq s =
  Array.unsafe_set q.times i time;
  Array.unsafe_set q.seqs i seq;
  Array.unsafe_set q.slot i s

(* Heap: fill the hole at [i] of the heap [0, n) with the entry
   [(time, seq, s)], moving each earlier child up into the hole. *)
let[@inline] sift_down q i n time seq s =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < n then begin
          let tl = Array.unsafe_get q.times l and tr = Array.unsafe_get q.times r in
          if tr < tl || (tr = tl && Array.unsafe_get q.seqs r < Array.unsafe_get q.seqs l)
          then r
          else l
        end
        else l
      in
      let tc = Array.unsafe_get q.times c in
      if tc < time || (tc = time && Array.unsafe_get q.seqs c < seq) then begin
        move q c !i;
        i := c
      end
      else continue := false
    end
  done;
  place q !i time seq s

(* Sorted (earliest last) to heap (earliest first): reverse. *)
let to_heap q =
  let n = q.size in
  for i = 0 to (n / 2) - 1 do
    let j = n - 1 - i in
    let time = Array.unsafe_get q.times i
    and seq = Array.unsafe_get q.seqs i
    and s = Array.unsafe_get q.slot i in
    move q j i;
    place q j time seq s
  done;
  q.mask <- 0

(* Heap to sorted, in place: each pass moves the heap's earliest entry
   to the end of the shrinking heap, so the earliest ends up last. *)
let to_sorted q =
  for e = q.size - 1 downto 1 do
    let time = Array.unsafe_get q.times e
    and seq = Array.unsafe_get q.seqs e
    and s = Array.unsafe_get q.slot e in
    move q 0 e;
    sift_down q 0 e time seq s
  done;
  q.mask <- -1

let push2 q ~time a b =
  let a = inj a and b = inj b in
  let n = q.size in
  if n = Array.length q.times then grow q a b;
  if n = heap_above && q.mask <> 0 then to_heap q;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let s = Array.unsafe_get q.slot n in
  Array.unsafe_set q.xs s a;
  Array.unsafe_set q.ys s b;
  q.size <- n + 1;
  let i = ref n in
  if q.mask = 0 then
    (* Sift the hole up: only strictly-later parents move down — an
       equal-time parent has a smaller seq and must stay above (FIFO). *)
    while !i > 0 && Array.unsafe_get q.times ((!i - 1) / 2) > time do
      let p = (!i - 1) / 2 in
      move q p !i;
      i := p
    done
  else
    (* The entries that pop first, equal times included, shift up. *)
    while !i > 0 && Array.unsafe_get q.times (!i - 1) <= time do
      move q (!i - 1) !i;
      decr i
    done;
  place q !i time seq s

let push q ~time v = push2 q ~time v ()

(* The earliest entry's reads inline into the caller: a test for an
   empty queue, the position and one to two loads. *)
let[@inline] top q = (q.size - 1) land q.mask

let[@inline] next_time q =
  if q.size = 0 then
    raise (Invalid_argument "Event_queue.next_time: empty queue");
  Array.unsafe_get q.times (top q)

let[@inline] top_fst q =
  if q.size = 0 then
    raise (Invalid_argument "Event_queue.top_fst: empty queue");
  prj (Array.unsafe_get q.xs (Array.unsafe_get q.slot (top q)))

let[@inline] top_snd q =
  if q.size = 0 then
    raise (Invalid_argument "Event_queue.top_snd: empty queue");
  prj (Array.unsafe_get q.ys (Array.unsafe_get q.slot (top q)))

let drop_min q =
  if q.size = 0 then invalid_arg "Event_queue.drop_min: empty queue";
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then begin
    (* The freed slot ends at position [n], the first free one: sorted,
       it is there already; a heap re-inserts its last entry at the
       root hole and moves the root's slot there. *)
    if q.mask = 0 then begin
      let freed = Array.unsafe_get q.slot 0 in
      sift_down q 0 n (Array.unsafe_get q.times n) (Array.unsafe_get q.seqs n)
        (Array.unsafe_get q.slot n);
      Array.unsafe_set q.slot n freed;
      if n = sorted_at then to_sorted q
    end;
    (* The freed slot takes a copy of the new earliest entry's still-live
       payloads, so it does not keep the dropped ones reachable. *)
    let freed = Array.unsafe_get q.slot n
    and top = Array.unsafe_get q.slot ((n - 1) land q.mask) in
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
    let time = next_time q in
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
  q.mask <- -1;
  q.next_seq <- 0
