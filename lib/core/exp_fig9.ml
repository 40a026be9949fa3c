module Trace = M3v_apps.Trace
module Traceplayer = M3v_apps.Traceplayer
module M3fs = M3v_os.M3fs
module Par = M3v_par.Par

type point = { tiles : int; runs_per_s : (string * float) list }

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
  (* Steady-state throughput: the sum of the players' rates. *)
  List.fold_left (fun acc res -> acc +. Traceplayer.rate res) 0.0 results

let run ?(pool = Par.Pool.sequential) ?(runs = 3) ?(warmup = 1)
    ?(tile_counts = [ 1; 2; 4; 8; 12 ]) () =
  let find = Trace.find_trace () in
  let sqlite = Trace.sqlite_trace () in
  (* One task per (tile count, series) point: every [throughput] call
     builds its own System, and the traces are shared read-only.  Under
     --faults each task's fault stream is seeded by its place in this
     order, so the series keep it; [print] picks the table's column
     order by label. *)
  let series =
    [
      ("M3v find", System.M3v, find);
      ("M3x find", System.M3x, find);
      ("M3v SQLite", System.M3v, sqlite);
      ("M3x SQLite", System.M3x, sqlite);
    ]
  in
  {
    points =
      Exp_common.grid pool
        (fun tiles (label, variant, trace) ->
          (label, throughput ~variant ~trace ~tiles ~runs ~warmup ()))
        tile_counts series
      |> List.map (fun (tiles, runs_per_s) -> { tiles; runs_per_s });
  }

let print r =
  let series_labels = [ "M3x find"; "M3v find"; "M3x SQLite"; "M3v SQLite" ] in
  Exp_common.print_series
    ~title:"Figure 9: scalability with tile multiplexing (runs/s, 3 GHz x86-OOO)"
    ~x_label:"tiles"
    ~series_labels
    (List.map
       (fun p ->
         ( float_of_int p.tiles,
           List.map (fun l -> List.assoc l p.runs_per_s) series_labels ))
       r.points);
  Format.printf
    "  (paper: M3x find 45/49/94 runs/s at 1/2/4 tiles, unreliable beyond;@.";
  Format.printf
    "   M3x SQLite 49/82/86/68 at 1/2/4/8; M3v scales ~linearly to 12 tiles@.";
  Format.printf
    "   from 84 (find) and 111 (SQLite) runs/s at one tile.)@."
