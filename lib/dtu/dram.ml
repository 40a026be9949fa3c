module Time = M3v_sim.Time

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

type t = {
  store : bytes;
  access_latency_ps : int;
  ps_per_byte : int;
  mutable busy_until : Time.t;
  stats : stats;
}

(* Defaults model the FPGA's DDR4 interface: ~90 ns access latency and
   ~1 GB/s sustained per-stream bandwidth. *)
let create ~size ?(access_latency_ps = 90_000) ?(bytes_per_ns = 1) () =
  if size <= 0 then invalid_arg "Dram.create: size must be positive";
  {
    store = Bytes.make size '\000';
    access_latency_ps;
    ps_per_byte = 1_000 / bytes_per_ns;
    busy_until = Time.zero;
    stats = { reads = 0; writes = 0; bytes_read = 0; bytes_written = 0 };
  }

let size t = Bytes.length t.store

let check t ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length t.store then
    invalid_arg
      (Printf.sprintf "Dram: access [%#x, %#x) outside store of %#x bytes" off
         (off + len) (Bytes.length t.store))

let count_read t len =
  t.stats.reads <- t.stats.reads + 1;
  t.stats.bytes_read <- t.stats.bytes_read + len

let count_write t len =
  t.stats.writes <- t.stats.writes + 1;
  t.stats.bytes_written <- t.stats.bytes_written + len

let read t ~off ~len =
  check t ~off ~len;
  count_read t len;
  Bytes.sub t.store off len

let read_into t ~off ~dst ~dst_off ~len =
  check t ~off ~len;
  count_read t len;
  Bytes.blit t.store off dst dst_off len

let write t ~off ~src ~src_off ~len =
  check t ~off ~len;
  count_write t len;
  Bytes.blit src src_off t.store off len

let fill t ~off ~len c =
  check t ~off ~len;
  count_write t len;
  Bytes.fill t.store off len c

let access_time t ~now ~bytes =
  let start = Time.max now t.busy_until in
  let duration = t.access_latency_ps + (bytes * t.ps_per_byte) in
  t.busy_until <- Time.add start duration;
  Time.add start duration

let stats t = { t.stats with reads = t.stats.reads }
