module Dtu = M3v_dtu.Dtu
module Dram = M3v_dtu.Dram
module Topology = M3v_noc.Topology
module Noc = M3v_noc.Noc

type tile_spec =
  | Proc of Core_model.t
  | Proc_with_nic of Core_model.t
  | Ctrl of Core_model.t
  | Mem of int
  | Accel of string

type t = {
  engine : M3v_sim.Engine.t;
  noc : Noc.t;
  tiles : Tile.t array;
  ctrl : int option;
}

let create ?topology ~virtualized ~tiles engine () =
  let count = List.length tiles in
  if count = 0 then invalid_arg "Platform.create: no tiles";
  let topo =
    match topology with
    | Some t ->
        if Topology.tiles t <> count then
          invalid_arg "Platform.create: topology tile count mismatch";
        t
    | None -> Topology.star_mesh_2x2 ~tiles:count
  in
  let noc = Noc.create engine topo in
  let build id spec =
    let mk_dtu ~virtualized = Dtu.create ~virtualized ~tile:id engine noc in
    match spec with
    | Proc core ->
        { Tile.id; kind = Tile.Processing core; dtu = mk_dtu ~virtualized;
          dram = None; has_nic = false }
    | Proc_with_nic core ->
        { Tile.id; kind = Tile.Processing core; dtu = mk_dtu ~virtualized;
          dram = None; has_nic = true }
    | Ctrl core ->
        { Tile.id; kind = Tile.Controller core; dtu = mk_dtu ~virtualized:false;
          dram = None; has_nic = false }
    | Mem size ->
        { Tile.id; kind = Tile.Memory { size }; dtu = mk_dtu ~virtualized:false;
          dram = Some (Dram.create ~size ()); has_nic = false }
    | Accel acc_name ->
        (* Accelerators keep a plain DTU: M3v does not multiplex them
           (paper, section 8). *)
        { Tile.id; kind = Tile.Accelerator { acc_name };
          dtu = mk_dtu ~virtualized:false; dram = None; has_nic = false }
  in
  let tile_arr = Array.of_list (List.mapi build tiles) in
  let ctrl =
    Array.to_list tile_arr
    |> List.find_map (fun t ->
           match t.Tile.kind with Tile.Controller _ -> Some t.Tile.id | _ -> None)
  in
  let lookup_dtu id =
    if id >= 0 && id < Array.length tile_arr then Some tile_arr.(id).Tile.dtu
    else None
  in
  let lookup_mem id =
    if id >= 0 && id < Array.length tile_arr then tile_arr.(id).Tile.dram
    else None
  in
  Array.iter (fun t -> Dtu.connect t.Tile.dtu ~lookup_dtu ~lookup_mem) tile_arr;
  { engine; noc; tiles = tile_arr; ctrl }

let engine t = t.engine
let noc t = t.noc
let tile_count t = Array.length t.tiles

let tile t id =
  if id < 0 || id >= Array.length t.tiles then
    invalid_arg (Printf.sprintf "Platform.tile: %d out of range" id);
  t.tiles.(id)

let dtu t id = (tile t id).Tile.dtu

let core_exn t id =
  match Tile.core (tile t id) with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Platform.core_exn: tile %d has no core" id)

let memory_tiles t =
  Array.to_list t.tiles
  |> List.filter_map (fun tl ->
         if Tile.is_memory tl then Some tl.Tile.id else None)

let processing_tiles t =
  Array.to_list t.tiles
  |> List.filter_map (fun tl ->
         if Tile.is_processing tl then Some tl.Tile.id else None)

let controller_tile t =
  match t.ctrl with
  | Some id -> id
  | None -> invalid_arg "Platform.controller_tile: spec had no controller tile"

let dram_exn t id =
  match (tile t id).Tile.dram with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Platform.dram_exn: tile %d has no DRAM" id)

let pp fmt t =
  Format.fprintf fmt "platform[%d tiles:" (Array.length t.tiles);
  Array.iter (fun tl -> Format.fprintf fmt " %a" Tile.pp tl) t.tiles;
  Format.fprintf fmt "]"

let fpga_spec ?(boom_tiles = 7) ?(rocket_tiles = 1) ?(mem_size = 64 * 1024 * 1024)
    () =
  (* Tile 0: controller on a Rocket core.  Tiles 1..: BOOM processing tiles,
     the first of which has the NIC; then Rocket processing tiles; then two
     memory tiles. *)
  let booms =
    List.init boom_tiles (fun i ->
        if i = 0 then Proc_with_nic Core_model.boom else Proc Core_model.boom)
  in
  let rockets = List.init rocket_tiles (fun _ -> Proc Core_model.rocket) in
  (Ctrl Core_model.rocket :: booms) @ rockets @ [ Mem mem_size; Mem mem_size ]

let gem5_spec ?(user_tiles = 12) ?(mem_size = 256 * 1024 * 1024) () =
  Ctrl Core_model.x86_ooo
  :: List.init user_tiles (fun _ -> Proc Core_model.x86_ooo)
  @ [ Mem mem_size ]
