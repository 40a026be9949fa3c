open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module Time = M3v_sim.Time
module Stats = M3v_sim.Stats
module A = M3v_mux.Act_api
module Par = M3v_par.Par

type bar = { label : string; mean : float; stddev : float }

let bar_of_times label times ~to_unit =
  let xs = List.map to_unit times in
  let s = Stats.summarize xs in
  { label; mean = s.Stats.mean; stddev = s.Stats.stddev }

let timed_runs ~warmup ~runs times one_run =
  let* () = Proc.repeat warmup (fun _ -> one_run ()) in
  Proc.repeat runs (fun _ ->
      let* t0 = A.now in
      let* () = one_run () in
      let* t1 = A.now in
      times := Time.sub t1 t0 :: !times;
      Proc.return ())

let grid pool f xs ys =
  let results =
    Par.map pool
      (fun (x, y) -> f x y)
      (List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs)
  in
  let n = List.length ys in
  List.mapi (fun i x -> (x, List.filteri (fun j _ -> j / n = i) results)) xs

let print_bars ~title ~unit_label bars =
  Format.printf "@.== %s ==@." title;
  let widest =
    List.fold_left (fun acc b -> max acc (String.length b.label)) 0 bars
  in
  let max_mean = List.fold_left (fun acc b -> Float.max acc b.mean) 1e-9 bars in
  List.iter
    (fun b ->
      let hashes = int_of_float (40.0 *. b.mean /. max_mean) in
      Format.printf "  %-*s %10.2f +- %-8.2f %s |%s@." widest b.label b.mean
        b.stddev unit_label
        (String.make (max 0 hashes) '#'))
    bars

let print_series ~title ~x_label ~series_labels rows =
  Format.printf "@.== %s ==@." title;
  Format.printf "  %-10s" x_label;
  List.iter (fun l -> Format.printf " %14s" l) series_labels;
  Format.printf "@.";
  List.iter
    (fun (x, values) ->
      Format.printf "  %-10.0f" x;
      List.iter (fun v -> Format.printf " %14.1f" v) values;
      Format.printf "@.")
    rows

let print_kv ~title pairs =
  Format.printf "@.== %s ==@." title;
  let widest =
    List.fold_left (fun acc (k, _) -> max acc (String.length k)) 0 pairs
  in
  List.iter (fun (k, v) -> Format.printf "  %-*s  %s@." widest k v) pairs

(* FPGA spec tile map: 0 = controller, 1..7 = BOOM (1 has the NIC),
   8 = Rocket, 9/10 = memory. *)
let boom_tile_a = 1
let boom_tile_b = 2
let boom_tile_c = 3
let boom_tile_d = 4
let rocket_tile = 8
