module Rng = M3v_sim.Rng

module Zipf = struct
  type t = {
    n : int;
    theta : float;
    zetan : float;
    alpha : float;
    eta : float;
    rng : Rng.t;
  }

  let zeta n theta =
    let sum = ref 0.0 in
    for i = 1 to n do
      sum := !sum +. (1.0 /. (float_of_int i ** theta))
    done;
    !sum

  let create ?(theta = 0.99) ~n rng =
    if n <= 0 then invalid_arg "Zipf.create: n must be positive";
    if theta < 0.0 || theta >= 1.0 then
      invalid_arg "Zipf.create: theta must be in [0, 1)";
    let zetan = zeta n theta in
    let zeta2 = zeta 2 theta in
    let alpha = 1.0 /. (1.0 -. theta) in
    let eta =
      (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
      /. (1.0 -. (zeta2 /. zetan))
    in
    { n; theta; zetan; alpha; eta; rng }

  (* Gray et al.'s quick Zipfian sampler, as used by YCSB. *)
  let sample t =
    let u = Rng.float t.rng in
    let uz = u *. t.zetan in
    if uz < 1.0 then 0
    else if uz < 1.0 +. (0.5 ** t.theta) then 1
    else
      let v =
        float_of_int t.n *. (((t.eta *. u) -. t.eta +. 1.0) ** t.alpha)
      in
      min (t.n - 1) (int_of_float v)

  let n t = t.n
  let theta t = t.theta
end

module Mix = struct
  type 'a t = { total : int; entries : ('a * int) list; rng : Rng.t }

  let create entries rng =
    if entries = [] then invalid_arg "Mix.create: empty mix";
    List.iter
      (fun (_, w) -> if w < 0 then invalid_arg "Mix.create: negative weight")
      entries;
    let total = List.fold_left (fun acc (_, w) -> acc + w) 0 entries in
    if total <= 0 then invalid_arg "Mix.create: weights sum to zero";
    { total; entries; rng }

  let sample t =
    let dice = Rng.int t.rng t.total in
    let rec pick acc = function
      | [] -> assert false
      | (v, w) :: rest -> if dice < acc + w then v else pick (acc + w) rest
    in
    pick 0 t.entries

  let total t = t.total
end

(* [Rng.float] is in [0, 1), so [1 - u] is in (0, 1] and the log is
   finite; the result is strictly positive. *)
let exponential rng ~mean = -.mean *. log (1.0 -. Rng.float rng)

module Poisson = struct
  type t = { mean_gap_ps : float; rng : Rng.t; mutable next_ps : int }

  let create ~rate_per_s ~start_ps rng =
    if rate_per_s <= 0.0 then
      invalid_arg "Poisson.create: rate must be positive";
    { mean_gap_ps = 1e12 /. rate_per_s; rng; next_ps = start_ps }

  let next t =
    let gap = max 1 (int_of_float (exponential t.rng ~mean:t.mean_gap_ps)) in
    t.next_ps <- t.next_ps + gap;
    t.next_ps
end

module Mmpp = struct
  (* Burst state occupies [p_hi] of the time.  With the burst-state rate
     at [burst * rate], the calm-state rate solving
     p_hi * hi + (1 - p_hi) * lo = rate keeps the long-run mean on
     target. *)
  let p_hi = 0.2

  (* Mean calm-plus-burst cycle, split between the states by [p_hi]. *)
  let dwell_ps = 2.5e10

  type t = {
    gap_ps : float array; (* mean inter-arrival per state: 0 calm, 1 burst *)
    dwell_ps : float array; (* mean dwell per state *)
    rng : Rng.t;
    mutable state : int;
    mutable cur_ps : int;
    mutable until_ps : int; (* leave the current state at this instant *)
  }

  let create ?(burst = 4.0) ~rate_per_s ~start_ps rng =
    if rate_per_s <= 0.0 then invalid_arg "Mmpp.create: rate must be positive";
    if burst <= 1.0 then invalid_arg "Mmpp.create: burst must exceed 1";
    if burst >= 1.0 /. p_hi then
      invalid_arg "Mmpp.create: burst too large (calm rate would go negative)";
    let hi = rate_per_s *. burst in
    let lo = rate_per_s *. (1.0 -. (p_hi *. burst)) /. (1.0 -. p_hi) in
    let t =
      {
        gap_ps = [| 1e12 /. lo; 1e12 /. hi |];
        dwell_ps = [| (1.0 -. p_hi) *. dwell_ps; p_hi *. dwell_ps |];
        rng;
        state = 0;
        cur_ps = start_ps;
        until_ps = start_ps;
      }
    in
    t.until_ps <-
      start_ps + max 1 (int_of_float (exponential rng ~mean:t.dwell_ps.(0)));
    t

  let rec next t =
    let gap =
      max 1 (int_of_float (exponential t.rng ~mean:t.gap_ps.(t.state)))
    in
    let proposed = t.cur_ps + gap in
    if proposed <= t.until_ps then begin
      t.cur_ps <- proposed;
      proposed
    end
    else begin
      (* Cross the state boundary and redraw: the exponential is
         memoryless, so restarting the gap at the boundary preserves the
         per-state Poisson law. *)
      t.cur_ps <- t.until_ps;
      t.state <- 1 - t.state;
      t.until_ps <-
        t.cur_ps
        + max 1 (int_of_float (exponential t.rng ~mean:t.dwell_ps.(t.state)));
      next t
    end
end
