module Engine = M3v_sim.Engine
module Time = M3v_sim.Time
module Rng = M3v_sim.Rng
module Dtu = M3v_dtu.Dtu
module Msg = M3v_dtu.Msg

type host_behavior = Echo of { turnaround : Time.t } | Sink

type stats = {
  mutable tx : int;
  mutable rx : int;
  mutable tx_bytes : int;
  mutable rx_bytes : int;
  mutable dropped : int;
}

type t = {
  engine : Engine.t;
  dtu : Dtu.t option;
  wire_latency : Time.t;
  ps_per_byte : int;
  drop_probability : float;
  rng : Rng.t;
  host : host_behavior;
  mutable rx_gate : int;
  mutable rx_handler : (Net_proto.packet -> unit) option;
  stats : stats;
}

let create ~engine ?dtu ?(wire_latency = Time.us 6) ?(ps_per_byte = 8_000)
    ?(drop_probability = 0.0) ~host () =
  {
    engine;
    dtu;
    wire_latency;
    ps_per_byte;
    drop_probability;
    rng = Rng.create ~seed:0xE7;
    host;
    rx_gate = -1;
    rx_handler = None;
    stats = { tx = 0; rx = 0; tx_bytes = 0; rx_bytes = 0; dropped = 0 };
  }

let set_rx_gate t ep = t.rx_gate <- ep
let set_rx_handler t f = t.rx_handler <- Some f
let stats t = { t.stats with tx = t.stats.tx }

let wire_delay t pkt =
  Time.add t.wire_latency (Net_proto.wire_size pkt * t.ps_per_byte)

let dropped t =
  t.drop_probability > 0.0 && Rng.float t.rng < t.drop_probability

(* A frame arrives from the wire: the NIC DMAs it to memory and raises an
   interrupt; we model both as a message into the driver's receive gate. *)
let deliver_rx t pkt =
  if (t.rx_gate < 0 && t.rx_handler = None) || dropped t then
    t.stats.dropped <- t.stats.dropped + 1
  else begin
    t.stats.rx <- t.stats.rx + 1;
    t.stats.rx_bytes <- t.stats.rx_bytes + Net_proto.wire_size pkt;
    (* NIC DMA into the receive ring takes a moment. *)
    Engine.after t.engine ~delay:(Time.us 2) (fun () ->
        match (t.rx_handler, t.dtu) with
        | Some handler, _ -> handler pkt
        | None, Some dtu -> (
            let msg =
              Msg.make ~src_tile:(Dtu.tile dtu)
                ~src_act:M3v_dtu.Dtu_types.invalid_act
                ~size:(Bytes.length pkt.Net_proto.payload + 16)
                (Net_proto.Nic_rx pkt)
            in
            match Dtu.ext_inject dtu ~ep:t.rx_gate msg with
            | Ok () -> ()
            | Error _ -> t.stats.dropped <- t.stats.dropped + 1)
        | None, None -> t.stats.dropped <- t.stats.dropped + 1)
  end

let host_receive t (pkt : Net_proto.packet) =
  match t.host with
  | Sink -> ()
  | Echo { turnaround } ->
      let reply =
        { Net_proto.src = pkt.Net_proto.dst; dst = pkt.Net_proto.src;
          payload = pkt.Net_proto.payload }
      in
      Engine.after t.engine ~delay:turnaround (fun () ->
          Engine.after t.engine ~delay:(wire_delay t reply) (fun () ->
              deliver_rx t reply))

let transmit t pkt =
  t.stats.tx <- t.stats.tx + 1;
  t.stats.tx_bytes <- t.stats.tx_bytes + Net_proto.wire_size pkt;
  if dropped t then t.stats.dropped <- t.stats.dropped + 1
  else
    Engine.after t.engine ~delay:(wire_delay t pkt) (fun () -> host_receive t pkt)

let host_send t pkt =
  Engine.after t.engine ~delay:(wire_delay t pkt) (fun () -> deliver_rx t pkt)
