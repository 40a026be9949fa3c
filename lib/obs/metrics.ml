module Stats = M3v_sim.Stats
module H = Stats.Histogram

(* Typed metrics with (tile, act, cat) labels.  Like Trace's sink, the
   registry is an [Ambient] setting: emitters are no-ops (one atomic load
   while no domain has a registry, zero allocation) unless a registry is
   installed on the running domain.

   Parallel runs shard the registry per task: [shard_task] wraps a task
   so it records into a private shard, and returns a merge thunk the pool
   runs at [await] — in submission order, so merged output is
   byte-identical to a sequential run (counters and histograms commute;
   gauges resolve by simulated timestamp; series are merged by sort). *)

type key = { k_name : string; k_tile : int; k_act : int; k_cat : string }

(* A ring of the newest [series_cap] samples of one gauge or counter. *)
type series = {
  ser_ts : int array;
  ser_val : float array;
  mutable ser_len : int; (* number of live samples, <= series_cap *)
  mutable ser_head : int; (* next write position (ring) *)
}

type metric =
  | Counter of { mutable c : float }
  | Gauge of { mutable g : float; mutable g_ts : int }
  | Hist of H.t

type t = { table : (key, metric) Hashtbl.t; series : (key, series) Hashtbl.t }

let series_cap = 512
let create () = { table = Hashtbl.create 64; series = Hashtbl.create 16 }

(* --- ambient registry --- *)

let current : t Ambient.t = Ambient.make ()
let[@inline] on () = Ambient.on current
let installed_domains () = Ambient.domains current
let with_registry r f = Ambient.with_ current r f

(* --- recording --- *)

let find_or_add r key mk =
  match Hashtbl.find_opt r.table key with
  | Some m -> m
  | None ->
      let m = mk () in
      Hashtbl.add r.table key m;
      m

let key ~name ~tile ~act ~cat =
  { k_name = name; k_tile = tile; k_act = act; k_cat = cat }

let add r ~name ~tile ~act ~cat v =
  match
    find_or_add r (key ~name ~tile ~act ~cat) (fun () -> Counter { c = 0.0 })
  with
  | Counter c -> c.c <- c.c +. v
  | _ -> invalid_arg ("Metrics: " ^ name ^ " is not a counter")

let counter_add ~name ?(tile = -1) ?(act = -1) ?(cat = "") v =
  match Ambient.get current with
  | None -> ()
  | Some r -> add r ~name ~tile ~act ~cat v

let counter_incr ~name ?(tile = -1) ?(act = -1) ?(cat = "") () =
  match Ambient.get current with
  | None -> ()
  | Some r -> add r ~name ~tile ~act ~cat 1.0

let gauge_set ~name ?(tile = -1) ?(act = -1) ?(cat = "") ~ts v =
  match Ambient.get current with
  | None -> ()
  | Some r -> (
      match
        find_or_add r (key ~name ~tile ~act ~cat) (fun () ->
            Gauge { g = 0.0; g_ts = min_int })
      with
      | Gauge g ->
          g.g <- v;
          g.g_ts <- ts
      | _ -> invalid_arg ("Metrics: " ^ name ^ " is not a gauge"))

let observe ~name ?(tile = -1) ?(act = -1) ?(cat = "") v =
  match Ambient.get current with
  | None -> ()
  | Some r -> (
      match
        find_or_add r (key ~name ~tile ~act ~cat) (fun () -> Hist (H.create ()))
      with
      | Hist h -> H.add h v
      | _ -> invalid_arg ("Metrics: " ^ name ^ " is not a histogram"))

(* --- time series --- *)

let series_push r k ~ts v =
  let ser =
    match Hashtbl.find_opt r.series k with
    | Some s -> s
    | None ->
        let s =
          {
            ser_ts = Array.make series_cap 0;
            ser_val = Array.make series_cap 0.0;
            ser_len = 0;
            ser_head = 0;
          }
        in
        Hashtbl.add r.series k s;
        s
  in
  ser.ser_ts.(ser.ser_head) <- ts;
  ser.ser_val.(ser.ser_head) <- v;
  ser.ser_head <- (ser.ser_head + 1) mod series_cap;
  if ser.ser_len < series_cap then ser.ser_len <- ser.ser_len + 1

let series_points ser =
  (* Chronological order: the ring's oldest live sample first. *)
  let start =
    if ser.ser_len < series_cap then 0 else ser.ser_head
  in
  List.init ser.ser_len (fun i ->
      let j = (start + i) mod series_cap in
      (ser.ser_ts.(j), ser.ser_val.(j)))

(* Sample every gauge and counter of the ambient registry into its ring
   series.  Called from the engine observer hook (every 1024 simulation
   events), so sampling cadence is deterministic in simulated time. *)
let sample_ambient ~ts =
  match Ambient.get current with
  | None -> ()
  | Some r ->
      Hashtbl.iter
        (fun k m ->
          match m with
          | Gauge g -> series_push r k ~ts g.g
          | Counter c -> series_push r k ~ts c.c
          | Hist _ -> ())
        r.table

(* --- merging --- *)

let copy_metric = function
  | Counter c -> Counter { c = c.c }
  | Gauge g -> Gauge { g = g.g; g_ts = g.g_ts }
  | Hist h ->
      let h' = H.create () in
      H.merge ~into:h' h;
      Hist h'

let compare_key a b =
  match String.compare a.k_name b.k_name with
  | 0 -> (
      match Int.compare a.k_tile b.k_tile with
      | 0 -> (
          match Int.compare a.k_act b.k_act with
          | 0 -> String.compare a.k_cat b.k_cat
          | c -> c)
      | c -> c)
  | c -> c

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare_key

let merge ~into src =
  (* Iterate in sorted key order so merging is deterministic regardless of
     hash-table iteration order. *)
  List.iter
    (fun k ->
      let m = Hashtbl.find src.table k in
      match Hashtbl.find_opt into.table k with
      | None -> Hashtbl.add into.table k (copy_metric m)
      | Some existing -> (
          match (existing, m) with
          | Counter e, Counter c -> e.c <- e.c +. c.c
          | Hist e, Hist h -> H.merge ~into:e h
          | Gauge e, Gauge g ->
              (* Latest simulated timestamp wins; on a tie the merged-in
                 shard wins, which is deterministic because shards merge in
                 submission order. *)
              if g.g_ts >= e.g_ts then begin
                e.g <- g.g;
                e.g_ts <- g.g_ts
              end
          | _ ->
              invalid_arg
                ("Metrics.merge: type mismatch for " ^ k.k_name)))
    (sorted_keys src.table);
  List.iter
    (fun k ->
      let ser = Hashtbl.find src.series k in
      let pts = series_points ser in
      match Hashtbl.find_opt into.series k with
      | None ->
          List.iter (fun (ts, v) -> series_push into k ~ts v) pts
      | Some existing ->
          let merged =
            List.stable_sort
              (fun (a, _) (b, _) -> Int.compare a b)
              (series_points existing @ pts)
          in
          (* Keep the newest [series_cap] samples, preserving order. *)
          let n = List.length merged in
          let drop = max 0 (n - series_cap) in
          let kept = List.filteri (fun i _ -> i >= drop) merged in
          existing.ser_len <- 0;
          existing.ser_head <- 0;
          List.iter (fun (ts, v) -> series_push into k ~ts v) kept)
    (sorted_keys src.series)

(* [shard_task f] wraps [f] to run against a fresh shard (whatever domain
   executes it — the pool's helping-await may run it on the submitter),
   and returns the thunk that folds the shard into the registry ambient at
   submission time.  [None] when metrics are off, so the pool adds zero
   overhead in plain runs. *)
let shard_task f =
  match Ambient.get current with
  | None -> None
  | Some parent ->
      let shard = create () in
      Some
        ((fun () -> with_registry shard f), fun () -> merge ~into:parent shard)

(* --- export --- *)

type snapshot_row = {
  name : string;
  tile : int;
  act : int;
  cat : string;
  metric : metric;
  points : (int * float) list;
}

let rows r =
  sorted_keys r.table
  |> List.map (fun k ->
         {
           name = k.k_name;
           tile = k.k_tile;
           act = k.k_act;
           cat = k.k_cat;
           metric = Hashtbl.find r.table k;
           points =
             (match Hashtbl.find_opt r.series k with
             | Some ser -> series_points ser
             | None -> []);
         })

let json_float f =
  (* All recorded values are finite; %.17g round-trips exactly and is
     deterministic across runs. *)
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let to_buffer r =
  let b = Buffer.create 16384 in
  let rows = rows r in
  (* One section per metric kind: [fields row] is the JSON after a row's
     labels, or [None] when the row does not belong to the section. *)
  let section name fields =
    Buffer.add_string b (Printf.sprintf "\"%s\":[" name);
    let first = ref true in
    List.iter
      (fun row ->
        match fields row with
        | None -> ()
        | Some f ->
            if !first then first := false else Buffer.add_string b ",\n";
            Buffer.add_string b "{\"name\":\"";
            Chrome.escape b row.name;
            Buffer.add_string b
              (Printf.sprintf "\",\"tile\":%d,\"act\":%d" row.tile row.act);
            Buffer.add_string b ",\"cat\":\"";
            Chrome.escape b row.cat;
            Buffer.add_string b "\"";
            Buffer.add_string b f;
            Buffer.add_char b '}')
      rows;
    Buffer.add_string b "]"
  in
  Buffer.add_string b "{\"schema_version\":1,\n";
  section "counters" (fun row ->
      match row.metric with
      | Counter c -> Some (Printf.sprintf ",\"value\":%s" (json_float c.c))
      | Gauge _ | Hist _ -> None);
  Buffer.add_string b ",\n";
  section "gauges" (fun row ->
      match row.metric with
      | Gauge g ->
          Some
            (Printf.sprintf ",\"value\":%s,\"ts_ps\":%d" (json_float g.g)
               g.g_ts)
      | Counter _ | Hist _ -> None);
  Buffer.add_string b ",\n";
  section "histograms" (fun row ->
      match row.metric with
      | Hist h ->
          Some
            (Printf.sprintf
               ",\"count\":%d,\"mean\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s,\"max\":%s"
               (H.count h)
               (json_float (if H.count h = 0 then 0.0 else H.mean h))
               (json_float (H.percentile h 50.0))
               (json_float (H.percentile h 90.0))
               (json_float (H.percentile h 99.0))
               (json_float (H.max_value h)))
      | Counter _ | Gauge _ -> None);
  Buffer.add_string b ",\n";
  section "series" (fun row ->
      match row.points with
      | [] -> None
      | points ->
          Some
            (",\"points\":["
            ^ String.concat ","
                (List.map
                   (fun (ts, v) -> Printf.sprintf "[%d,%s]" ts (json_float v))
                   points)
            ^ "]"));
  Buffer.add_string b "}\n";
  b

let to_json r = Buffer.contents (to_buffer r)

(* --- text report --- *)

let label_of row =
  let b = Buffer.create 32 in
  Buffer.add_string b row.name;
  if row.tile >= 0 then Buffer.add_string b (Printf.sprintf "{tile=%d" row.tile)
  else if row.act >= 0 || row.cat <> "" then Buffer.add_string b "{";
  let opened = row.tile >= 0 || row.act >= 0 || row.cat <> "" in
  if row.act >= 0 then
    Buffer.add_string b
      (Printf.sprintf "%sact=%d" (if row.tile >= 0 then "," else "") row.act);
  if row.cat <> "" then
    Buffer.add_string b
      (Printf.sprintf "%s%s"
         (if row.tile >= 0 || row.act >= 0 then "," else "")
         row.cat);
  if opened then Buffer.add_char b '}';
  Buffer.contents b

let print fmt r =
  let rows = rows r in
  let counters =
    List.filter_map
      (fun row ->
        match row.metric with Counter c -> Some (row, c.c) | _ -> None)
      rows
  in
  let gauges =
    List.filter_map
      (fun row ->
        match row.metric with Gauge g -> Some (row, g.g) | _ -> None)
      rows
  in
  let hists =
    List.filter_map
      (fun row -> match row.metric with Hist h -> Some (row, h) | _ -> None)
      rows
  in
  Format.fprintf fmt "@.======== metrics ========@.";
  if counters <> [] then begin
    Format.fprintf fmt "@.-- counters --@.";
    List.iter
      (fun (row, v) ->
        Format.fprintf fmt "  %-52s %14.0f@." (label_of row) v)
      counters
  end;
  if gauges <> [] then begin
    Format.fprintf fmt "@.-- gauges (last value) --@.";
    List.iter
      (fun (row, v) -> Format.fprintf fmt "  %-52s %14.2f@." (label_of row) v)
      gauges
  end;
  if hists <> [] then begin
    Format.fprintf fmt "@.-- histograms --@.";
    Format.fprintf fmt "  %-40s %8s %12s %12s %12s@." "histogram" "n" "mean"
      "p50" "p99";
    List.iter
      (fun (row, h) ->
        if H.count h > 0 then
          Format.fprintf fmt "  %-40s %8d %12.1f %12.1f %12.1f@."
            (label_of row) (H.count h) (H.mean h) (H.percentile h 50.0)
            (H.percentile h 99.0))
      hists
  end;
  Format.fprintf fmt "@."
