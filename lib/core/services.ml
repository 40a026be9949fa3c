module Controller = M3v_kernel.Controller
module Platform = M3v_tile.Platform
module Dram = M3v_dtu.Dram
module Fs_core = M3v_os.Fs_core
module M3fs = M3v_os.M3fs
module Fs_client = M3v_os.Fs_client

type fs_instance = {
  fs_aid : M3v_dtu.Dtu_types.act_id;
  fs_handle : M3fs.handle;
  connect : M3v_dtu.Dtu_types.act_id -> M3v_mux.Act_api.env -> Fs_client.t;
  fs_mem_tile : int;
  fs_mem_base : int;
}

let make_fs sys ~tile ~blocks ?max_extent_blocks () =
  let ctrl = System.controller sys in
  let handle = M3fs.make_handle ?max_extent_blocks ~blocks () in
  let rgate = ref (-1) and mem_ep = ref (-1) and region_sel = ref (-1) in
  let fs_aid, _ =
    System.spawn sys ~tile ~name:"m3fs"
      (M3fs.program handle ~rgate ~mem_ep ~region_sel ())
  in
  let region_size = blocks * Fs_core.block_size in
  let mem_tile, base = Controller.host_alloc_mem ctrl ~size:region_size in
  let sel =
    Controller.host_new_mgate ctrl ~act:fs_aid ~mem_tile ~base ~size:region_size
      ~perm:M3v_dtu.Dtu_types.RW
  in
  region_sel := sel;
  mem_ep := Controller.host_activate ctrl ~act:fs_aid ~sel ();
  (* The service's request gate: clients connect with their own channels,
     all pointing at this gate. *)
  let rgate_sel = Controller.host_new_rgate ctrl ~act:fs_aid ~slots:32 ~slot_size:768 in
  rgate := Controller.host_activate ctrl ~act:fs_aid ~sel:rgate_sel ();
  let connect client_aid client_env =
    let sgate_sel =
      Controller.host_new_sgate ctrl ~owner:client_aid ~rgate_of:fs_aid
        ~rgate_sel ~label:client_aid ~credits:2 ()
    in
    let sgate = Controller.host_activate ctrl ~act:client_aid ~sel:sgate_sel () in
    let reply_sel = Controller.host_new_rgate ctrl ~act:client_aid ~slots:2 ~slot_size:768 in
    let reply_ep = Controller.host_activate ctrl ~act:client_aid ~sel:reply_sel () in
    let data_ep =
      Controller.host_alloc_ep ctrl ~tile:(Controller.act_tile ctrl client_aid)
        ~act:client_aid
    in
    Fs_client.create ~env:client_env ~sgate ~reply_ep ~data_ep
  in
  { fs_aid; fs_handle = handle; connect; fs_mem_tile = mem_tile; fs_mem_base = base }

let preload_file sys inst ~path data =
  let core = M3fs.core inst.fs_handle in
  let dram = Platform.dram_exn (System.platform sys) inst.fs_mem_tile in
  match Fs_core.create_file core path with
  | Ok ino ->
      let len = Bytes.length data in
      Fs_core.preallocate core ino
        ~blocks:((len + Fs_core.block_size - 1) / Fs_core.block_size);
      Fs_core.set_size core ino len;
      List.iter
        (fun (region_off, pos, l) ->
          Dram.write dram ~off:(inst.fs_mem_base + region_off) ~src:data
            ~src_off:pos ~len:l)
        (Fs_core.segments core ino ~off:0 ~len)
  | Error e -> invalid_arg ("Services.preload_file: " ^ e)

type net_instance = {
  net_aid : M3v_dtu.Dtu_types.act_id;
  net_handle : M3v_os.Netserv.handle;
  nic : M3v_os.Nic.t;
  net_connect :
    M3v_dtu.Dtu_types.act_id -> M3v_mux.Act_api.env -> M3v_os.Net_client.t;
}

let nic_tile sys =
  let platform = System.platform sys in
  match
    List.find_opt
      (fun tile -> (Platform.tile platform tile).M3v_tile.Tile.has_nic)
      (Platform.processing_tiles platform)
  with
  | Some tile -> tile
  | None -> invalid_arg "Services.make_net: platform has no NIC tile"

let make_net sys ?drop_probability ~host () =
  let ctrl = System.controller sys in
  let tile = nic_tile sys in
  let handle = M3v_os.Netserv.make_handle () in
  let rgate = ref (-1) and nic_rgate = ref (-1) in
  let nic_box = ref None in
  let net_aid, _env =
    System.spawn sys ~tile ~name:"net"
      (M3v_os.Netserv.program handle ~rgate ~nic_rgate ~nic:nic_box ())
  in
  let rgate_sel = Controller.host_new_rgate ctrl ~act:net_aid ~slots:16 ~slot_size:2048 in
  rgate := Controller.host_activate ctrl ~act:net_aid ~sel:rgate_sel ();
  let nic_sel = Controller.host_new_rgate ctrl ~act:net_aid ~slots:32 ~slot_size:2048 in
  nic_rgate := Controller.host_activate ctrl ~act:net_aid ~sel:nic_sel ();
  let nic =
    M3v_os.Nic.create ~engine:(System.engine sys)
      ~dtu:(Platform.dtu (System.platform sys) tile)
      ?drop_probability ~host ()
  in
  M3v_os.Nic.set_rx_gate nic !nic_rgate;
  nic_box := Some nic;
  let net_connect client_aid _client_env =
    let sgate_sel =
      Controller.host_new_sgate ctrl ~owner:client_aid ~rgate_of:net_aid
        ~rgate_sel ~label:client_aid ~credits:2 ()
    in
    let sgate = Controller.host_activate ctrl ~act:client_aid ~sel:sgate_sel () in
    let reply_sel =
      Controller.host_new_rgate ctrl ~act:client_aid ~slots:2 ~slot_size:2048
    in
    let reply_ep = Controller.host_activate ctrl ~act:client_aid ~sel:reply_sel () in
    M3v_os.Net_client.create ~sgate ~reply_ep
  in
  { net_aid; net_handle = handle; nic; net_connect }

let peek_file sys inst ~path =
  let core = M3fs.core inst.fs_handle in
  let dram = Platform.dram_exn (System.platform sys) inst.fs_mem_tile in
  Option.map
    (fun ino ->
      let out = Bytes.create (Fs_core.size core ino) in
      List.iter
        (fun (region_off, pos, l) ->
          Dram.read_into dram ~off:(inst.fs_mem_base + region_off) ~dst:out
            ~dst_off:pos ~len:l)
        (Fs_core.segments core ino ~off:0 ~len:(Bytes.length out));
      out)
    (Fs_core.lookup core path)
