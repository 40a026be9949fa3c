module Rng = M3v_sim.Rng

type t = { sample_rate : int; samples : int array }

let clamp16 v = max (-32768) (min 32767 v)

let sample_rate = 16_000
let burst_every = 2.0

let room_audio rng ~seconds () =
  let n = int_of_float (seconds *. float_of_int sample_rate) in
  let burst_len = sample_rate / 2 in
  let burst_gap = int_of_float (burst_every *. float_of_int sample_rate) in
  let samples =
    Array.init n (fun i ->
        let noise = Rng.int rng 400 - 200 in
        let hum =
          int_of_float (300.0 *. sin (2.0 *. Float.pi *. 50.0 *. float_of_int i /. float_of_int sample_rate))
        in
        let in_burst = burst_gap > 0 && i mod burst_gap < burst_len in
        let voice =
          if in_burst then
            let ph = float_of_int (i mod burst_gap) in
            int_of_float
              (8000.0
              *. sin (2.0 *. Float.pi *. 220.0 *. ph /. float_of_int sample_rate)
              *. sin (2.0 *. Float.pi *. 3.0 *. ph /. float_of_int sample_rate))
          else 0
        in
        clamp16 (noise + hum + voice))
  in
  { sample_rate; samples }

let window_energy t ~off ~len =
  let len = min len (Array.length t.samples - off) in
  if len <= 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = off to off + len - 1 do
      let s = float_of_int t.samples.(i) in
      sum := !sum +. (s *. s)
    done;
    sqrt (!sum /. float_of_int len)
  end

let to_pcm_bytes samples =
  let out = Bytes.create (2 * Array.length samples) in
  Array.iteri (fun i s -> Bytes.set_int16_le out (2 * i) s) samples;
  out

let of_pcm_bytes data =
  let n = Bytes.length data / 2 in
  Array.init n (fun i -> Bytes.get_int16_le data (2 * i))
