type 'a bucket =
  | Empty
  | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = { mutable size : int; mutable buckets : 'a bucket array }

let create n =
  let rec pow2 x = if x >= n then x else pow2 (2 * x) in
  { size = 0; buckets = Array.make (pow2 8) Empty }

let length t = t.size

(* A multiply and a shift, so keys that differ only in high bits still
   spread over the buckets. *)
let[@inline] index buckets key =
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land (Array.length buckets - 1)

let rec find_in key = function
  | Empty -> raise Not_found
  | Cons c -> if c.key = key then c.data else find_in key c.next

let find t key = find_in key (Array.unsafe_get t.buckets (index t.buckets key))

let rec find_opt_in key = function
  | Empty -> None
  | Cons c -> if c.key = key then Some c.data else find_opt_in key c.next

let find_opt t key =
  find_opt_in key (Array.unsafe_get t.buckets (index t.buckets key))

let rec mem_in key = function
  | Empty -> false
  | Cons c -> c.key = key || mem_in key c.next

let mem t key = mem_in key (Array.unsafe_get t.buckets (index t.buckets key))

(* Double the buckets once the table holds twice as many bindings. *)
let resize t =
  let old = t.buckets in
  let buckets = Array.make (2 * Array.length old) Empty in
  let rec move = function
    | Empty -> ()
    | Cons c as b ->
        let next = c.next in
        let i = index buckets c.key in
        c.next <- Array.unsafe_get buckets i;
        Array.unsafe_set buckets i b;
        move next
  in
  Array.iter move old;
  t.buckets <- buckets

let rec replace_in key v = function
  | Empty -> false
  | Cons c ->
      if c.key = key then begin
        c.data <- v;
        true
      end
      else replace_in key v c.next

let replace t key v =
  let i = index t.buckets key in
  let b = Array.unsafe_get t.buckets i in
  if not (replace_in key v b) then begin
    Array.unsafe_set t.buckets i (Cons { key; data = v; next = b });
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.buckets then resize t
  end

let rec unlink t i key prev = function
  | Empty -> ()
  | Cons c as b ->
      if c.key = key then begin
        t.size <- t.size - 1;
        match prev with
        | Empty -> Array.unsafe_set t.buckets i c.next
        | Cons p -> p.next <- c.next
      end
      else unlink t i key b c.next

let remove t key =
  let i = index t.buckets key in
  unlink t i key Empty (Array.unsafe_get t.buckets i)
