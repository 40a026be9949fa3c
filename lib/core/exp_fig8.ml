open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module Time = M3v_sim.Time
module Net_client = M3v_os.Net_client
module Nic = M3v_os.Nic
module Lx = M3v_linux.Lx_api
module Linux_sim = M3v_linux.Linux_sim
module Par = M3v_par.Par

type result = { bars : Exp_common.bar list }

(* The peer machine's application-level turnaround for an echo. *)
let peer_turnaround = Time.us 40
let peer = (1, 7000)
let payload = Bytes.make 1 '!'

let echo_loop ~(udp : Net_client.udp) ~runs ~warmup ~times =
  let* sock = udp.Net_client.u_socket () in
  let* () = udp.Net_client.u_bind sock 5000 in
  let round () =
    let* () = udp.Net_client.u_sendto sock peer payload in
    let* _src, _data = udp.Net_client.u_recvfrom sock in
    Proc.return ()
  in
  let* () = Exp_common.timed_runs ~warmup ~runs times round in
  udp.Net_client.u_close sock

let m3v_times ~shared ~runs ~warmup =
  let sys = System.create ~variant:System.M3v () in
  let nic_tile = Exp_common.boom_tile_a in
  let app_tile = if shared then nic_tile else Exp_common.boom_tile_b in
  ignore
    (System.with_pager sys
       ~tile:(if shared then nic_tile else Exp_common.boom_tile_d));
  let net =
    Services.make_net sys ~host:(Nic.Echo { turnaround = peer_turnaround }) ()
  in
  let times = ref [] in
  let client_box = ref None in
  let aid, env =
    System.spawn sys ~tile:app_tile ~name:"udpbench" (fun _ ->
        let udp = Net_client.to_udp (Option.get !client_box) in
        echo_loop ~udp ~runs ~warmup ~times)
  in
  client_box := Some (net.Services.net_connect aid env);
  System.boot sys;
  ignore (System.run sys);
  !times

let linux_times ~runs ~warmup =
  let engine = M3v_sim.Engine.create () in
  let lx = Linux_sim.create engine () in
  (* A NIC wired straight into the Linux kernel's driver. *)
  let nic =
    Nic.create ~engine ~host:(Nic.Echo { turnaround = peer_turnaround }) ()
  in
  Linux_sim.attach_nic lx nic;
  let times = ref [] in
  let _ =
    Linux_sim.spawn lx ~name:"udpbench"
      (echo_loop ~udp:Lx.udp ~runs ~warmup ~times)
  in
  Linux_sim.boot lx;
  ignore (M3v_sim.Engine.run engine);
  !times

let run ?(pool = Par.Pool.sequential) ?(runs = 50) ?(warmup = 5) () =
  let bar (label, times) =
    Exp_common.bar_of_times label times ~to_unit:Time.to_us
  in
  {
    bars =
      Par.all pool
        [
          (fun () -> ("Linux", linux_times ~runs ~warmup));
          (fun () -> ("M3v (shared)", m3v_times ~shared:true ~runs ~warmup));
          (fun () -> ("M3v (isolated)", m3v_times ~shared:false ~runs ~warmup));
        ]
      |> List.map bar;
  }

let print r =
  Exp_common.print_bars ~title:"Figure 8: UDP latency (1-byte echo to peer machine)"
    ~unit_label:"us" r.bars
