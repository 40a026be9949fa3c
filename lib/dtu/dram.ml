module Time = M3v_sim.Time

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

let page_size = Dtu_types.page_size

(* [pages.(i)] holds bytes [i * page_size, (i + 1) * page_size) of the
   store.  An unbacked page is a zero-length [bytes] and reads as zeros.
   Test for one by its length: a checkpoint restore rebuilds the shared
   zero-length block as a fresh one, so physical equality with
   [Bytes.empty] does not survive a round trip. *)
type t = {
  size : int;
  pages : bytes array;
  access_latency_ps : int;
  ps_per_byte : int;
  mutable busy_until : Time.t;
  stats : stats;
}

(* Defaults model the FPGA's DDR4 interface: ~90 ns access latency and
   ~1 GB/s sustained per-stream bandwidth. *)
let create ~size ?(access_latency_ps = 90_000) ?(bytes_per_ns = 1) () =
  if size <= 0 then invalid_arg "Dram.create: size must be positive";
  if access_latency_ps < 0 then
    invalid_arg "Dram.create: access_latency_ps must not be negative";
  (* Above 1,000 bytes/ns a byte would take 0 ps: infinite bandwidth. *)
  if bytes_per_ns <= 0 || bytes_per_ns > 1_000 then
    invalid_arg "Dram.create: bytes_per_ns must be in [1, 1000]";
  {
    size;
    pages = Array.make ((size + page_size - 1) / page_size) Bytes.empty;
    access_latency_ps;
    ps_per_byte = 1_000 / bytes_per_ns;
    busy_until = Time.zero;
    stats = { reads = 0; writes = 0; bytes_read = 0; bytes_written = 0 };
  }

let size t = t.size

let check t ~off ~len =
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Dram: access [%#x, %#x) outside store of %#x bytes" off
         (off + len) t.size)

let check_buf what buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg
      (Printf.sprintf "Dram.%s: range [%d, %d) outside buffer of %d bytes" what
         pos (pos + len) (Bytes.length buf))

let count_read t len =
  t.stats.reads <- t.stats.reads + 1;
  t.stats.bytes_read <- t.stats.bytes_read + len

let count_write t len =
  t.stats.writes <- t.stats.writes + 1;
  t.stats.bytes_written <- t.stats.bytes_written + len

(* Page [i], backed with zeros first if it had no backing. *)
let backed_page t i =
  let page = t.pages.(i) in
  if Bytes.length page > 0 then page
  else begin
    let page = Bytes.make page_size '\000' in
    t.pages.(i) <- page;
    page
  end

(* The page-by-page loops below are top-level functions over explicit
   arguments, not one iterator taking a closure, so that an access
   allocates nothing.  Each chunk ends at [len] or at the page's end. *)
let chunk ~off ~len =
  let room = page_size - (off mod page_size) in
  if len < room then len else room

let rec copy_out t ~off ~dst ~dst_off ~len =
  if len > 0 then begin
    let page = t.pages.(off / page_size) and n = chunk ~off ~len in
    if Bytes.length page > 0 then
      Bytes.blit page (off mod page_size) dst dst_off n
    else Bytes.fill dst dst_off n '\000';
    copy_out t ~off:(off + n) ~dst ~dst_off:(dst_off + n) ~len:(len - n)
  end

let rec copy_in t ~off ~src ~src_off ~len =
  if len > 0 then begin
    let n = chunk ~off ~len in
    Bytes.blit src src_off (backed_page t (off / page_size)) (off mod page_size) n;
    copy_in t ~off:(off + n) ~src ~src_off:(src_off + n) ~len:(len - n)
  end

let rec fill_pages t ~off ~len c =
  if len > 0 then begin
    let n = chunk ~off ~len in
    Bytes.fill (backed_page t (off / page_size)) (off mod page_size) n c;
    fill_pages t ~off:(off + n) ~len:(len - n) c
  end

let back t ~off ~len =
  let start = Int.max 0 off and stop = Int.min t.size (off + len) in
  if start < stop then
    for i = start / page_size to (stop - 1) / page_size do
      ignore (backed_page t i)
    done

let read t ~off ~len =
  check t ~off ~len;
  count_read t len;
  let dst = Bytes.create len in
  copy_out t ~off ~dst ~dst_off:0 ~len;
  dst

let read_into t ~off ~dst ~dst_off ~len =
  check t ~off ~len;
  check_buf "read_into" dst ~pos:dst_off ~len;
  count_read t len;
  copy_out t ~off ~dst ~dst_off ~len

let write t ~off ~src ~src_off ~len =
  check t ~off ~len;
  check_buf "write" src ~pos:src_off ~len;
  count_write t len;
  copy_in t ~off ~src ~src_off ~len

let fill t ~off ~len c =
  check t ~off ~len;
  count_write t len;
  fill_pages t ~off ~len c

let access_time t ~now ~bytes =
  let start = Time.max now t.busy_until in
  let duration = t.access_latency_ps + (bytes * t.ps_per_byte) in
  t.busy_until <- Time.add start duration;
  Time.add start duration

let stats t = { t.stats with reads = t.stats.reads }
