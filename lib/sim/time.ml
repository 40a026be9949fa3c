type t = int

let zero = 0
let ps x = x
let ns x = x * 1_000
let us x = x * 1_000_000
let ms x = x * 1_000_000_000
let s x = x * 1_000_000_000_000
let add = ( + )
let sub = ( - )
let compare = Int.compare
let min = Stdlib.min
let max (a : t) b = if a >= b then a else b
let to_ns t = float_of_int t /. 1e3
let to_us t = float_of_int t /. 1e6
let to_ms t = float_of_int t /. 1e9
let to_s t = float_of_int t /. 1e12

let ps_per_cycle_of_hz hz =
  if hz <= 0 then invalid_arg "Time.ps_per_cycle_of_hz";
  Stdlib.max 1 ((1_000_000_000_000 + (hz / 2)) / hz)

let of_cycles ~ps_per_cycle n = ps_per_cycle * n
let to_cycles ~ps_per_cycle t = t / ps_per_cycle

let pp fmt t =
  if t >= s 1 then Format.fprintf fmt "%.3fs" (to_s t)
  else if t >= ms 1 then Format.fprintf fmt "%.3fms" (to_ms t)
  else if t >= us 1 then Format.fprintf fmt "%.3fus" (to_us t)
  else if t >= ns 1 then Format.fprintf fmt "%.1fns" (to_ns t)
  else Format.fprintf fmt "%dps" t
