type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: empty sample"
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let sq = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (sq /. float_of_int (List.length xs - 1))

let percentile p xs =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty sample"
  | _ ->
      if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
      let sorted = List.sort compare xs in
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      let lo = int_of_float (floor rank) in
      let hi = int_of_float (ceil rank) in
      if lo = hi then arr.(lo)
      else
        let frac = rank -. float_of_int lo in
        arr.(lo) +. (frac *. (arr.(hi) -. arr.(lo)))

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty sample"
  | _ ->
      {
        n = List.length xs;
        mean = mean xs;
        stddev = stddev xs;
        min = List.fold_left Stdlib.min infinity xs;
        max = List.fold_left Stdlib.max neg_infinity xs;
        median = percentile 50.0 xs;
      }

module Histogram = struct
  (* Log-linear bucketing (HDR style): values are grouped by the position
     of their most significant bit, with [sub_bits] linear sub-buckets per
     power of two.  Quantiles are therefore approximate (relative error
     bounded by 2^-sub_bits) while memory stays constant, which keeps
     recording cheap enough to run inside the tracing hot path. *)
  let sub_bits = 6
  let sub_count = 1 lsl sub_bits
  let max_exponent = 52
  let bucket_count = (max_exponent + 1) * sub_count

  type t = {
    buckets : int array;
    mutable count : int;
    mutable sum : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    {
      buckets = Array.make bucket_count 0;
      count = 0;
      sum = 0.0;
      min_v = infinity;
      max_v = neg_infinity;
    }

  let msb_index v =
    let rec go v i = if v <= 1 then i else go (v lsr 1) (i + 1) in
    go v 0

  let bucket_index v =
    let v = max 0 v in
    if v < sub_count then v
    else
      let exp = msb_index v in
      let sub = (v lsr (exp - sub_bits)) land (sub_count - 1) in
      ((exp - sub_bits + 1) * sub_count) + sub

  (* Representative value of a bucket: its lower bound. *)
  let bucket_value idx =
    if idx < sub_count then idx
    else
      let exp = (idx / sub_count) + sub_bits - 1 in
      let sub = idx mod sub_count in
      (1 lsl exp) lor (sub lsl (exp - sub_bits))

  let add t v =
    let i = bucket_index (int_of_float (Float.max 0.0 v)) in
    let i = if i >= bucket_count then bucket_count - 1 else i in
    t.buckets.(i) <- t.buckets.(i) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum +. v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let count t = t.count
  let total t = t.sum
  let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
  let min_value t = if t.count = 0 then 0.0 else t.min_v
  let max_value t = if t.count = 0 then 0.0 else t.max_v

  let quantile t q =
    if t.count = 0 then 0.0
    else if q <= 0.0 then min_value t
    else if q >= 1.0 then max_value t
    else begin
      let target = int_of_float (ceil (q *. float_of_int t.count)) in
      let target = if target < 1 then 1 else target in
      let seen = ref 0 in
      let result = ref t.max_v in
      (try
         for i = 0 to bucket_count - 1 do
           seen := !seen + t.buckets.(i);
           if !seen >= target then begin
             result := float_of_int (bucket_value i);
             raise Exit
           end
         done
       with Exit -> ());
      (* Clamp into the observed range: bucket bounds are coarser than the
         true extremes. *)
      Float.min (Float.max !result t.min_v) t.max_v
    end

  let percentile t p = quantile t (p /. 100.0)

  let merge ~into src =
    Array.iteri (fun i n -> into.buckets.(i) <- into.buckets.(i) + n) src.buckets;
    into.count <- into.count + src.count;
    into.sum <- into.sum +. src.sum;
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v

  let reset t =
    Array.fill t.buckets 0 bucket_count 0;
    t.count <- 0;
    t.sum <- 0.0;
    t.min_v <- infinity;
    t.max_v <- neg_infinity

  let pp fmt t =
    Format.fprintf fmt "n=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f"
      t.count (mean t) (percentile t 50.0) (percentile t 90.0)
      (percentile t 99.0) (max_value t)
end

module Counter = struct
  (* A float-only record is stored flat, so bumping a cell writes the
     unboxed float in place instead of allocating a new box. *)
  type cell = { mutable v : float }
  type t = (string, cell) Hashtbl.t

  let create () = Hashtbl.create 16

  (* [Hashtbl.find] on a hit returns the cell without the [Some] box that
     [find_opt] allocates. *)
  let cell t key =
    match Hashtbl.find t key with
    | c -> c
    | exception Not_found ->
        let c = { v = 0.0 } in
        Hashtbl.add t key c;
        c

  (* The int is converted here: a float computed by a caller in another
     module would be boxed to be passed, as [bump] is not inlined across
     modules under [-opaque]. *)
  let bump c n = c.v <- c.v +. float_of_int n

  let add t key v =
    let c = cell t key in
    c.v <- c.v +. v

  let incr t key = add t key 1.0
  let get t key = match Hashtbl.find_opt t key with Some c -> c.v | None -> 0.0

  let to_list t =
    Hashtbl.fold (fun k c acc -> (k, c.v) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end
