(* Reads perfbench's one-rep reports, each written by
   [perf.exe --rep W --seed 1 --small > W.json].

   [perf_pins digests W.json ...] prints "W <digest>" for each report, as
   test/perfbench_digests.txt pins them.

   [perf_pins alloc BENCHMARK.json PINNED W.json ...] exits 1, naming each
   workload at fault, if a report's minor words per op exceed the value
   PINNED holds for it by more than BENCHMARK.json's alloc_words_per_op
   bound. *)

module J = M3v_bench_io.Bench_io

let read file = J.parse_json (In_channel.with_open_bin file In_channel.input_all)
let field key = function J.J_obj fields -> List.assoc key fields | _ -> raise Not_found
let number = function J.J_num x -> x | _ -> raise Not_found
let workload file = Filename.(remove_extension (basename file))

let alloc_bound benchmark =
  match field "end_to_end" (read benchmark) with
  | J.J_arr metrics ->
      let alloc m = field "name" m = J.J_str "alloc_words_per_op" in
      number (field "bound" (List.find alloc metrics))
  | _ -> raise Not_found

let over_bound ~bound ~pins report =
  let stats = field "stats" (read report) in
  let per_op = number (field "minor_words" stats) /. number (field "ops" stats) in
  let pin = List.assoc (workload report) pins in
  let limit = pin *. (1. +. bound) in
  if per_op > limit then
    Printf.eprintf "%s: %.2f words/op, pinned %.2f, limit %.2f\n" (workload report) per_op pin limit;
  per_op > limit

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "digests" :: reports ->
      let digest r = match field "digest" (read r) with J.J_str d -> d | _ -> raise Not_found in
      List.iter (fun r -> print_endline (workload r ^ " " ^ digest r)) reports
  | "alloc" :: benchmark :: pinned :: reports ->
      let pins = In_channel.with_open_text pinned In_channel.input_lines in
      let pins = List.map (fun l -> Scanf.sscanf l "%s %f" (fun w v -> (w, v))) pins in
      let over = List.filter (over_bound ~bound:(alloc_bound benchmark) ~pins) reports in
      if over <> [] then exit 1
  | _ -> failwith "usage: perf_pins digests W.json ... | alloc BENCHMARK.json PINNED W.json ..."
