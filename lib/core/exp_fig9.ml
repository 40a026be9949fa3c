module Time = M3v_sim.Time
module Trace = M3v_apps.Trace
module Traceplayer = M3v_apps.Traceplayer
module M3fs = M3v_os.M3fs
module Par = M3v_par.Par

type point = {
  tiles : int;
  m3v_find : float option;
  m3x_find : float option;
  m3v_sqlite : float option;
  m3x_sqlite : float option;
}

type result = { points : point list }

(* One traceplayer + one m3fs instance per user tile, co-located. *)
let throughput ~variant ~trace ~tiles ~runs ~warmup () =
  let spec = M3v_tile.Platform.gem5_spec ~user_tiles:tiles () in
  let sys = System.create ~spec ~variant () in
  let results =
    List.init tiles (fun i ->
        let tile = 1 + i in
        let fs = Services.make_fs sys ~tile ~blocks:2048 () in
        Traceplayer.setup_fs (M3fs.core fs.Services.fs_handle) trace;
        let res = Traceplayer.make_results () in
        let client_box = ref None in
        let aid, env =
          System.spawn sys ~tile ~name:(Printf.sprintf "player%d" i)
            (Traceplayer.program res
               ~client:(lazy (Option.get !client_box))
               ~trace ~runs ~warmup)
        in
        client_box := Some (fs.Services.connect aid env);
        res)
  in
  System.boot sys;
  ignore (System.run sys);
  (* Steady-state throughput: each player's rate is runs / sum of its own
     run times; the system rate is the sum over players. *)
  List.fold_left
    (fun acc res ->
      let times = res.Traceplayer.run_times in
      if res.Traceplayer.runs_completed = 0 || times = [] then acc
      else begin
        let total = List.fold_left Time.add Time.zero times in
        acc +. (float_of_int (List.length times) /. Time.to_s total)
      end)
    0.0 results

let run ?(pool = Par.Pool.sequential) ?(runs = 3) ?(warmup = 1)
    ?(tile_counts = [ 1; 2; 4; 8; 12 ]) () =
  let find = Trace.find_trace () in
  let sqlite = Trace.sqlite_trace () in
  (* One task per (tile count, series) point — every [throughput] call
     builds its own System, so all points are independent.  The traces
     are shared read-only.  Merging in submission order makes the result
     independent of how many workers ran it. *)
  let combos =
    List.concat_map
      (fun tiles ->
        List.map
          (fun (variant, trace) -> (tiles, variant, trace))
          [
            (System.M3v, find);
            (System.M3x, find);
            (System.M3v, sqlite);
            (System.M3x, sqlite);
          ])
      tile_counts
  in
  let values =
    Par.map pool
      (fun (tiles, variant, trace) ->
        throughput ~variant ~trace ~tiles ~runs ~warmup ())
      combos
  in
  let rec group tile_counts values =
    match (tile_counts, values) with
    | [], [] -> []
    | tiles :: rest, vf :: xf :: vs :: xs :: more ->
        {
          tiles;
          m3v_find = Some vf;
          m3x_find = Some xf;
          m3v_sqlite = Some vs;
          m3x_sqlite = Some xs;
        }
        :: group rest more
    | _ -> assert false
  in
  { points = group tile_counts values }

let print r =
  Exp_common.print_series
    ~title:"Figure 9: scalability with tile multiplexing (runs/s, 3 GHz x86-OOO)"
    ~x_label:"tiles"
    ~series_labels:[ "M3x find"; "M3v find"; "M3x SQLite"; "M3v SQLite" ]
    (List.map
       (fun p ->
         ( float_of_int p.tiles,
           [ p.m3x_find; p.m3v_find; p.m3x_sqlite; p.m3v_sqlite ] ))
       r.points);
  Format.printf
    "  (paper: M3x find 45/49/94 runs/s at 1/2/4 tiles, unreliable beyond;@.";
  Format.printf
    "   M3x SQLite 49/82/86/68 at 1/2/4/8; M3v scales ~linearly to 12 tiles@.";
  Format.printf
    "   from 84 (find) and 111 (SQLite) runs/s at one tile.)@."
