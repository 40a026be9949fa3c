module Stats = M3v_sim.Stats

(* Critical-path analysis over a trace sink.

   Flow points (issue → inject → deliver → fetch, one flow per message
   uid) give each message's end-to-end timeline; mux "run" spans and
   "ctx_switch" instants on the receiving tile let us split the
   deliver→fetch wait into scheduling delay, activity-switch cost, and
   genuine receive-buffer wait.  Segment boundaries are clamped to be
   monotone, so segments are telescoping differences and always sum
   exactly (in simulated ps) to the end-to-end latency.

   Every task of the sink simulates a system of its own (see
   [Trace.parts]), so flows, reply-to-request links and the tracks of
   mux spans and switches are keyed by task too. *)

type point = { p_ts : int; p_tile : int; p_act : int }

type flow = {
  mutable f_issue : point option;
  mutable f_inject : point option;
  mutable f_deliver : point option;
  mutable f_fetch : point option;
  mutable f_parent : int option; (* request uid, for reply flows *)
}

type flow_prof = {
  fp_id : int;
  fp_e2e : int; (* ps *)
  fp_segments : (string * int) list; (* sums exactly to fp_e2e *)
}

type report = {
  rpcs : flow_prof list;
  oneways : flow_prof list;
  incomplete : int; (* flows started but never fetched *)
}

let oneway_segments =
  [ "sender_cmd"; "noc_transit"; "sched_wait"; "ctx_switch"; "buffer_wait" ]

let rpc_segments = oneway_segments @ [ "server"; "reply" ]

(* --- collection --- *)

let arg_str key args =
  List.find_map
    (function k, Trace.S s when k = key -> Some s | _ -> None)
    args

let arg_int key args =
  List.find_map
    (function k, Trace.I i when k = key -> Some i | _ -> None)
    args

type ctx = {
  flows : (int * int, flow) Hashtbl.t; (* (task, uid) -> flow *)
  runs : (int * int * int, (int * int) list ref) Hashtbl.t;
      (* (task, tile, act) -> (start, dur) spans, newest first *)
  switches : (int * int, int list ref) Hashtbl.t;
      (* (task, tile) -> instant ts, newest first *)
}

let flow_of ctx id =
  match Hashtbl.find_opt ctx.flows id with
  | Some f -> f
  | None ->
      let f =
        {
          f_issue = None;
          f_inject = None;
          f_deliver = None;
          f_fetch = None;
          f_parent = None;
        }
      in
      Hashtbl.add ctx.flows id f;
      f

let push_assoc tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some cell -> cell := v :: !cell
  | None -> Hashtbl.add tbl key (ref [ v ])

let collect sink =
  let ctx =
    {
      flows = Hashtbl.create 256;
      runs = Hashtbl.create 64;
      switches = Hashtbl.create 16;
    }
  in
  let collect_event task (ev : Trace.event) =
    match ev.ev_ph with
    | Trace.Flow_start | Trace.Flow_step | Trace.Flow_end ->
        let f = flow_of ctx (task, ev.ev_id) in
        let p = { p_ts = ev.ev_ts; p_tile = ev.ev_tile; p_act = ev.ev_act } in
        (match arg_int "req" ev.ev_args with
        | Some req -> f.f_parent <- Some req
        | None -> ());
        (match arg_str "kind" ev.ev_args with
        | Some "issue" -> if f.f_issue = None then f.f_issue <- Some p
        | Some "inject" -> if f.f_inject = None then f.f_inject <- Some p
        | Some "deliver" -> if f.f_deliver = None then f.f_deliver <- Some p
        | Some "fetch" -> f.f_fetch <- Some p
        | _ -> ())
    | Trace.Complete
      when ev.ev_cat = "mux" && ev.ev_name = "run" && ev.ev_tile >= 0
           && ev.ev_act >= 0 ->
        push_assoc ctx.runs (task, ev.ev_tile, ev.ev_act) (ev.ev_ts, ev.ev_dur)
    | Trace.Instant when ev.ev_cat = "mux" && ev.ev_name = "ctx_switch" ->
        if ev.ev_tile >= 0 then
          push_assoc ctx.switches (task, ev.ev_tile) ev.ev_ts
    | _ -> ()
  in
  List.iter
    (fun (task, evs) -> List.iter (collect_event task) evs)
    (Trace.parts sink);
  ctx

(* --- wait decomposition --- *)

(* Split the deliver→fetch interval [td, tf] on the receiving (tile, act)
   into (sched_wait, ctx_switch, buffer_wait).  The mux "run" span
   containing the fetch tells us when the receiver started running; the
   latest "ctx_switch" instant at or before that run start marks when the
   mux decided to dispatch it.  Without a containing run span (e.g. a
   fetch on the kernel tile, which has no mux) the whole interval is
   buffer wait.  All boundaries are clamped into [td, tf] so the three
   parts always sum to tf - td. *)
let wait_breakdown ctx ~task ~tile ~act ~td ~tf =
  let run_start =
    match Hashtbl.find_opt ctx.runs (task, tile, act) with
    | None -> None
    | Some spans ->
        List.find_map
          (fun (ts, dur) -> if ts <= tf && tf <= ts + dur then Some ts else None)
          !spans
  in
  match run_start with
  | None -> (0, 0, tf - td)
  | Some rs ->
      let sw =
        match Hashtbl.find_opt ctx.switches (task, tile) with
        | None -> rs
        | Some instants -> (
            (* newest first *)
            match List.find_opt (fun ts -> ts <= rs) !instants with
            | Some ts -> ts
            | None -> rs)
      in
      let sw = min (max sw td) tf in
      let rs = min (max rs sw) tf in
      (sw - td, rs - sw, tf - rs)

(* --- segment assembly --- *)

(* Clamped, defaulted timeline of one message leg: issue <= inject <=
   deliver <= fetch.  Missing interior points (e.g. kernel-injected
   messages have no inject) collapse their segment to zero. *)
let leg_times f =
  match (f.f_issue, f.f_fetch) with
  | Some i, Some fe ->
      let ts_of d = function Some p -> p.p_ts | None -> d in
      let t_issue = i.p_ts in
      let t_inject = max t_issue (ts_of t_issue f.f_inject) in
      let t_deliver = max t_inject (ts_of t_inject f.f_deliver) in
      let t_fetch = max t_deliver fe.p_ts in
      Some (t_issue, t_inject, t_deliver, t_fetch, fe)
  | _ -> None

let leg_segments ctx ~task f =
  match leg_times f with
  | None -> None
  | Some (t_issue, t_inject, t_deliver, t_fetch, fetch_pt) ->
      let sched, switch, buffer =
        wait_breakdown ctx ~task ~tile:fetch_pt.p_tile ~act:fetch_pt.p_act
          ~td:t_deliver ~tf:t_fetch
      in
      Some
        ( [
            ("sender_cmd", t_inject - t_issue);
            ("noc_transit", t_deliver - t_inject);
            ("sched_wait", sched);
            ("ctx_switch", switch);
            ("buffer_wait", buffer);
          ],
          t_issue,
          t_fetch )

let analyze sink =
  let ctx = collect sink in
  (* Which flows are requests (some reply names them as parent)? *)
  let replied = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (task, id) f ->
      match f.f_parent with
      | Some req ->
          if Hashtbl.mem ctx.flows (task, req) then
            Hashtbl.replace replied (task, req) id
      | None -> ())
    ctx.flows;
  let rpcs = ref [] and oneways = ref [] and incomplete = ref 0 in
  Hashtbl.iter
    (fun ((task, id) as key) f ->
      if f.f_parent <> None then ()
        (* reply legs are folded into their request's profile *)
      else
        match (leg_segments ctx ~task f, Hashtbl.find_opt replied key) with
        | None, _ -> if f.f_issue <> None then incr incomplete
        | Some (segs, t_issue, t_fetch), None ->
            let fp =
              { fp_id = id; fp_e2e = t_fetch - t_issue; fp_segments = segs }
            in
            oneways := (key, fp) :: !oneways
        | Some (segs, t_issue, t_fetch), Some reply_id -> (
            let r = Hashtbl.find ctx.flows (task, reply_id) in
            match (r.f_issue, leg_times r) with
            | Some ri, Some (_, _, _, r_fetch, _) ->
                let t_reply_issue = max t_fetch ri.p_ts in
                let t_reply_fetch = max t_reply_issue r_fetch in
                let segs =
                  segs
                  @ [
                      ("server", t_reply_issue - t_fetch);
                      ("reply", t_reply_fetch - t_reply_issue);
                    ]
                in
                rpcs :=
                  ( key,
                    {
                      fp_id = id;
                      fp_e2e = t_reply_fetch - t_issue;
                      fp_segments = segs;
                    } )
                  :: !rpcs
            | _ ->
                (* reply never completed; profile the request leg alone *)
                let fp =
                  { fp_id = id; fp_e2e = t_fetch - t_issue; fp_segments = segs }
                in
                oneways := (key, fp) :: !oneways))
    ctx.flows;
  (* In task order, then uid order within a task. *)
  let in_order flows =
    List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) flows)
  in
  {
    rpcs = in_order !rpcs;
    oneways = in_order !oneways;
    incomplete = !incomplete;
  }

let segment_means r =
  let flows = r.rpcs @ r.oneways in
  List.filter_map
    (fun seg ->
      match
        List.filter_map
          (fun f -> Option.map float_of_int (List.assoc_opt seg f.fp_segments))
          flows
      with
      | [] -> None
      | xs -> Some (seg, Stats.mean xs))
    rpc_segments

(* --- printing --- *)

let print_table fmt ~title ~segments flows =
  let n = List.length flows in
  if n > 0 then begin
    Format.fprintf fmt "@.-- %s (%d flows, ns) --@." title n;
    Format.fprintf fmt "  %-12s %10s %10s %10s %7s@." "segment" "p50" "p99"
      "mean" "share";
    let e2es = List.map (fun f -> float_of_int f.fp_e2e) flows in
    let mean_e2e = Stats.mean e2es in
    List.iter
      (fun seg ->
        let xs =
          List.map
            (fun f -> float_of_int (List.assoc seg f.fp_segments))
            flows
        in
        let mean = Stats.mean xs in
        Format.fprintf fmt "  %-12s %10.2f %10.2f %10.2f %6.1f%%@." seg
          (Stats.percentile 50.0 xs /. 1000.0)
          (Stats.percentile 99.0 xs /. 1000.0)
          (mean /. 1000.0)
          (if mean_e2e > 0.0 then mean /. mean_e2e *. 100.0 else 0.0))
      segments;
    Format.fprintf fmt "  %-12s %10.2f %10.2f %10.2f %6.1f%%@." "end_to_end"
      (Stats.percentile 50.0 e2es /. 1000.0)
      (Stats.percentile 99.0 e2es /. 1000.0)
      (mean_e2e /. 1000.0) 100.0
  end

let print fmt r =
  Format.fprintf fmt "@.======== critical-path profile ========@.";
  Format.fprintf fmt "  flows: %d RPC, %d one-way, %d incomplete@."
    (List.length r.rpcs) (List.length r.oneways) r.incomplete;
  print_table fmt ~title:"RPC critical path" ~segments:rpc_segments r.rpcs;
  print_table fmt ~title:"one-way critical path" ~segments:oneway_segments
    r.oneways;
  Format.fprintf fmt "@."

(* --- folded stacks (flamegraph) --- *)

let act_frame act =
  if act < 0 then "(none)"
  else
    match Trace.reserved_act act with
    | Some label -> label
    | None -> Printf.sprintf "act%d" act

let tile_frame tile =
  if tile < 0 then "global" else Printf.sprintf "tile%d" tile

(* Reconstruct span nesting per (task, tile, act) track by interval
   containment and attribute each span its self time (duration minus
   nested children), producing standard "frame;frame;frame weight" folded
   lines with simulated picoseconds as the weight.  The frames name the
   tile and activity, so a path's weight sums over tasks. *)
let folded sink =
  let acc : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let add path v =
    match Hashtbl.find_opt acc path with
    | Some n -> Hashtbl.replace acc path (n + v)
    | None -> Hashtbl.add acc path v
  in
  let groups : (int * int * int, Trace.event list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun (task, evs) ->
      List.iter
        (fun (ev : Trace.event) ->
          if ev.ev_ph = Trace.Complete then
            push_assoc groups (task, ev.ev_tile, ev.ev_act) ev)
        evs)
    (Trace.parts sink);
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) groups []
    |> List.sort Stdlib.compare
  in
  List.iter
    (fun ((_, tile, act) as track) ->
      let evs =
        List.rev !(Hashtbl.find groups track)
        |> List.stable_sort (fun (a : Trace.event) b ->
               match Int.compare a.ev_ts b.ev_ts with
               | 0 -> Int.compare b.ev_dur a.ev_dur (* parents first *)
               | c -> c)
      in
      let root = tile_frame tile ^ ";" ^ act_frame act in
      (* stack: innermost first; (frame, end_ts, dur, child_ps) *)
      let stack = ref [] in
      let close () =
        match !stack with
        | [] -> ()
        | (name, _end_ts, dur, kids) :: rest ->
            let names =
              List.rev_map (fun (n, _, _, _) -> n)
                ((name, 0, 0, 0) :: rest)
            in
            let self = dur - kids in
            if self > 0 then add (String.concat ";" (root :: names)) self;
            stack :=
              (match rest with
              | (pn, pe, pd, pk) :: tl -> (pn, pe, pd, pk + dur) :: tl
              | [] -> [])
      in
      let rec pop_for ev =
        match !stack with
        | (_, end_ts, _, _) :: _
          when ev.Trace.ev_ts >= end_ts
               || ev.Trace.ev_ts + ev.Trace.ev_dur > end_ts ->
            close ();
            pop_for ev
        | _ -> ()
      in
      List.iter
        (fun (ev : Trace.event) ->
          pop_for ev;
          stack :=
            ( ev.ev_cat ^ "/" ^ ev.ev_name,
              ev.ev_ts + ev.ev_dur,
              ev.ev_dur,
              0 )
            :: !stack)
        evs;
      while !stack <> [] do
        close ()
      done)
    keys;
  let b = Buffer.create 4096 in
  Hashtbl.fold (fun path v acc -> (path, v) :: acc) acc []
  |> List.sort Stdlib.compare
  |> List.iter (fun (path, v) ->
         Buffer.add_string b path;
         Buffer.add_char b ' ';
         Buffer.add_string b (string_of_int v);
         Buffer.add_char b '\n');
  b
