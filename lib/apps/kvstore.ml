open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module A = M3v_mux.Act_api
module Vfs = M3v_os.Vfs
module Fs_proto = M3v_os.Fs_proto

module Smap = Map.Make (String)

type sstable = {
  ss_path : string;
  ss_index : (string * (int * int)) array;  (** key -> (entry offset, entry length), sorted *)
  ss_size : int;
}

type t = {
  vfs : Vfs.t;
  dir : string;
  memtable_limit : int;
  compact_threshold : int;
  mutable memtable : bytes Smap.t;
  mutable mem_bytes : int;
  mutable wal_fd : int;
  mutable wal_pos : int;
  mutable tables : sstable list;  (** newest first *)
  mutable next_table : int;
  mutable n_compactions : int;
  mutable io_buf : M3v_mux.Act_ops.buf option;  (** reused for all file IO *)
}

(* Cycles of CPU work per key comparison / per entry handled. *)
let cmp_cycles = 24
let entry_cycles = 90

(* leveldb-equivalent CPU work per operation on the 80 MHz core: block
   decode, CRC verification, comparator calls, iterator bookkeeping.
   These dominate the YCSB runtimes, as in the paper's measurements. *)
let put_cycles = 220_000
let get_cycles = 180_000
let scan_seek_cycles = 250_000 (* per-table iterator seek *)
let scan_item_cycles = 55_000

let sstable_count t = List.length t.tables
let compactions t = t.n_compactions

(* The size of the I/O buffer and of every full write. *)
let page = 4096

(* Entry encoding: klen:u16, vlen:u32, key bytes, value bytes. *)
let header_len = 6
let entry_len ~key ~value = header_len + String.length key + Bytes.length value
let klen_at data off = Bytes.get_uint16_le data off
let vlen_at data off = Int32.to_int (Bytes.get_int32_le data (off + 2))

let decode_entry data off =
  let klen = klen_at data off and vlen = vlen_at data off in
  let key = Bytes.sub_string data (off + header_len) klen in
  let value = Bytes.sub data (off + header_len + klen) vlen in
  (key, value, header_len + klen + vlen)

(* Bytes to write, laid end to end: slice [i] is [lens.(i)] bytes of
   [srcs.(i)] from [offs.(i)].  The page writer gathers them straight into
   the I/O buffer, so no table or WAL record is ever encoded whole. *)
type slices = { srcs : bytes array; offs : int array; lens : int array }

let slices n =
  { srcs = Array.make n Bytes.empty; offs = Array.make n 0; lens = Array.make n 0 }

let set_slice s i src off len =
  s.srcs.(i) <- src;
  s.offs.(i) <- off;
  s.lens.(i) <- len

(* Entry [j] as slices [3j], [3j+1], [3j+2]: its header, encoded into
   [headers] at [6j], its key and its value.  The key slice only reads the
   string. *)
let set_entry s headers j ~key ~value =
  let h = header_len * j in
  Bytes.set_uint16_le headers h (String.length key);
  Bytes.set_int32_le headers (h + 2) (Int32.of_int (Bytes.length value));
  set_slice s (3 * j) headers h header_len;
  set_slice s ((3 * j) + 1) (Bytes.unsafe_of_string key) 0 (String.length key);
  set_slice s ((3 * j) + 2) value 0 (Bytes.length value)

let wal_path dir = dir ^ "/wal"
let table_path dir n = Printf.sprintf "%s/sst-%04d" dir n

let create ~vfs ~dir ?(memtable_limit = 16 * 1024) ?(compact_threshold = 4) () =
  let* _ = vfs.Vfs.mkdir dir in
  let* wal = vfs.Vfs.open_ (wal_path dir) Fs_proto.wronly in
  match wal with
  | Error e -> Proc.return (Error e)
  | Ok wal_fd ->
      Proc.return
        (Ok
           {
             vfs;
             dir;
             memtable_limit;
             compact_threshold;
             memtable = Smap.empty;
             mem_bytes = 0;
             wal_fd;
             wal_pos = 0;
             tables = [];
             next_table = 0;
             n_compactions = 0;
             io_buf = None;
           })

(* The store's single reused IO buffer (real code does not allocate a
   fresh buffer per operation; neither may we, or the pager pool drains). *)
let io_buf t =
  match t.io_buf with
  | Some buf -> Proc.return buf
  | None ->
      let* buf = A.alloc_buf page in
      t.io_buf <- Some buf;
      Proc.return buf

(* The page writer: gather the slices into the I/O buffer and write them
   to [fd] as full pages and then the remainder, with no write when they
   are empty.  Stops at the first short write; returns the bytes
   written. *)
let write_slices t fd s =
  let* buf = io_buf t in
  let dst = buf.M3v_mux.Act_ops.data in
  let n = Array.length s.srcs in
  (* The next byte to gather is [at] bytes into slice [i]. *)
  let i = ref 0 and at = ref 0 in
  let rec pages written =
    let fill = ref 0 in
    while !fill < page && !i < n do
      let k = min (s.lens.(!i) - !at) (page - !fill) in
      Bytes.blit s.srcs.(!i) (s.offs.(!i) + !at) dst !fill k;
      fill := !fill + k;
      at := !at + k;
      if !at = s.lens.(!i) then begin
        incr i;
        at := 0
      end
    done;
    let len = !fill in
    if len = 0 then Proc.return written
    else
      let* got = t.vfs.Vfs.write fd buf len in
      if got <> len then Proc.return (written + got) else pages (written + len)
  in
  pages 0

(* Write [size] bytes of slices to a new table file; returns its path. *)
let write_table t s ~size =
  let path = table_path t.dir t.next_table in
  t.next_table <- t.next_table + 1;
  let* fd = t.vfs.Vfs.open_ path Fs_proto.wronly in
  let fd = match fd with Ok fd -> fd | Error e -> failwith e in
  let* written = write_slices t fd s in
  if written <> size then failwith "kvstore: short write";
  let* () = t.vfs.Vfs.close fd in
  Proc.return path

let read_blob t fd ~off ~len =
  let* () = t.vfs.Vfs.seek fd off in
  let* buf = io_buf t in
  let out = Bytes.create len in
  let rec loop pos =
    if pos >= len then Proc.return out
    else begin
      let n = min page (len - pos) in
      let* got = t.vfs.Vfs.read fd buf n in
      if got = 0 then failwith "kvstore: unexpected EOF";
      Bytes.blit buf.M3v_mux.Act_ops.data 0 out pos got;
      loop (pos + got)
    end
  in
  loop 0

(* Serialize the memtable into an SSTable file. *)
let flush t =
  if Smap.is_empty t.memtable then Proc.return ()
  else begin
    let entries = Smap.cardinal t.memtable in
    let s = slices (3 * entries) in
    let headers = Bytes.create (header_len * entries) in
    let index = Array.make entries ("", (0, 0)) in
    let j = ref 0 and size = ref 0 in
    Smap.iter
      (fun key value ->
        let len = entry_len ~key ~value in
        set_entry s headers !j ~key ~value;
        index.(!j) <- (key, (!size, len));
        incr j;
        size := !size + len)
      t.memtable;
    let* () = A.compute (entries * entry_cycles) in
    let* path = write_table t s ~size:!size in
    t.tables <- { ss_path = path; ss_index = index; ss_size = !size } :: t.tables;
    t.memtable <- Smap.empty;
    t.mem_bytes <- 0;
    (* Truncate the WAL: its entries are now durable in the table. *)
    let* wal = t.vfs.Vfs.open_ (wal_path t.dir) Fs_proto.wronly in
    (match wal with Ok fd -> t.wal_fd <- fd | Error e -> failwith e);
    t.wal_pos <- 0;
    Proc.return ()
  end

(* Binary search in a table index; returns (offset, length) of the entry. *)
let index_lookup t (table : sstable) key =
  let n = Array.length table.ss_index in
  let steps = ref 0 in
  let rec search lo hi =
    if lo >= hi then None
    else begin
      incr steps;
      let mid = (lo + hi) / 2 in
      let mk, loc = table.ss_index.(mid) in
      if mk = key then Some loc
      else if mk < key then search (mid + 1) hi
      else search lo mid
    end
  in
  let result = search 0 n in
  let* () = A.compute (!steps * cmp_cycles) in
  ignore t;
  Proc.return result

let rec same_key data off key i =
  i = String.length key
  || (Bytes.get data (off + i) = key.[i] && same_key data off key (i + 1))

(* Raise [Failure] unless [data], read back from [table]'s file, holds an
   entry with the indexed key and length at every offset in the index.
   Allocates nothing. *)
let check_entries table data =
  for j = 0 to Array.length table.ss_index - 1 do
    let key, (off, len) = table.ss_index.(j) in
    let klen = String.length key in
    if
      off < 0
      || off + len > Bytes.length data
      || len < header_len + klen
      || klen_at data off <> klen
      || header_len + klen + vlen_at data off <> len
      || not (same_key data (off + header_len) key 0)
    then failwith ("kvstore: table does not match its index: " ^ table.ss_path)
  done

(* Merge the sorted indexes of [tables], oldest first.  Returns the number
   of distinct keys and, for the [j]th of them in key order, the table
   holding its newest entry and that entry's position in the table's
   index. *)
let merge_indexes tables =
  let k = Array.length tables in
  let total = Array.fold_left (fun n tb -> n + Array.length tb.ss_index) 0 tables in
  let win_table = Array.make total 0 and win_pos = Array.make total 0 in
  let pos = Array.make k 0 in
  let head i = fst tables.(i).ss_index.(pos.(i)) in
  let live i = pos.(i) < Array.length tables.(i).ss_index in
  let count = ref 0 and fin = ref false in
  while not !fin do
    (* Newest first, so that of equal keys the newest table's wins. *)
    let best = ref (-1) in
    for i = k - 1 downto 0 do
      if live i && (!best < 0 || String.compare (head i) (head !best) < 0) then
        best := i
    done;
    if !best < 0 then fin := true
    else begin
      let key = head !best in
      win_table.(!count) <- !best;
      win_pos.(!count) <- pos.(!best);
      incr count;
      for i = 0 to k - 1 do
        if live i && String.equal (head i) key then pos.(i) <- pos.(i) + 1
      done
    end
  done;
  (!count, win_table, win_pos)

let compact t =
  t.n_compactions <- t.n_compactions + 1;
  (* Read every table oldest first and check it against its index. *)
  let tables = Array.of_list (List.rev t.tables) in
  let blobs = Array.make (Array.length tables) Bytes.empty in
  let* () =
    Proc.repeat (Array.length tables) (fun i ->
        let table = tables.(i) in
        let* fd = t.vfs.Vfs.open_ table.ss_path Fs_proto.rdonly in
        let fd = match fd with Ok fd -> fd | Error e -> failwith e in
        let* data = read_blob t fd ~off:0 ~len:table.ss_size in
        check_entries table data;
        blobs.(i) <- data;
        let* () = t.vfs.Vfs.close fd in
        let* _ = t.vfs.Vfs.unlink table.ss_path in
        A.compute (Array.length table.ss_index * entry_cycles))
  in
  t.tables <- [];
  (* Rewrite each key's newest entry straight from the bytes read back. *)
  let n, win_table, win_pos = merge_indexes tables in
  let s = slices n in
  let size = ref 0 in
  let index =
    Array.init n (fun j ->
        let i = win_table.(j) in
        let key, (off, len) = tables.(i).ss_index.(win_pos.(j)) in
        set_slice s j blobs.(i) off len;
        let at = !size in
        size := at + len;
        (key, (at, len)))
  in
  let* path = write_table t s ~size:!size in
  t.tables <- [ { ss_path = path; ss_index = index; ss_size = !size } ];
  Proc.return ()

let put t ~key ~value =
  let* () = A.compute put_cycles in
  (* WAL append first.  A short write means the file system has failed;
     the record is not retried. *)
  let record = slices 3 in
  set_entry record (Bytes.create header_len) 0 ~key ~value;
  let* () = t.vfs.Vfs.seek t.wal_fd t.wal_pos in
  let* _ = write_slices t t.wal_fd record in
  t.wal_pos <- t.wal_pos + entry_len ~key ~value;
  let* () = A.compute entry_cycles in
  (if not (Smap.mem key t.memtable) then
     t.mem_bytes <- t.mem_bytes + entry_len ~key ~value);
  t.memtable <- Smap.add key value t.memtable;
  if t.mem_bytes > t.memtable_limit then
    let* () = flush t in
    if List.length t.tables > t.compact_threshold then compact t
    else Proc.return ()
  else Proc.return ()

let get t ~key =
  let* () = A.compute get_cycles in
  match Smap.find_opt key t.memtable with
  | Some v -> Proc.return (Some v)
  | None ->
      let rec search = function
        | [] -> Proc.return None
        | table :: rest -> (
            let* loc = index_lookup t table key in
            match loc with
            | None -> search rest
            | Some (off, len) ->
                let* fd = t.vfs.Vfs.open_ table.ss_path Fs_proto.rdonly in
                let fd = match fd with Ok fd -> fd | Error e -> failwith e in
                let* data = read_blob t fd ~off ~len in
                let* () = t.vfs.Vfs.close fd in
                let _, value, _ = decode_entry data 0 in
                Proc.return (Some value))
      in
      search t.tables

let scan t ~start ~count =
  (* Collect candidates from the memtable. *)
  let mem_part =
    Smap.to_seq_from start t.memtable |> Seq.map (fun (k, v) -> (k, v))
    |> List.of_seq
  in
  (* From each table: walk the index from the first key >= start and read
     the covered file range (the expensive part). *)
  let* table_parts =
    Proc.fold_list
      (fun acc table ->
        let idx = table.ss_index in
        let n = Array.length idx in
        let rec first lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if fst idx.(mid) < start then first (mid + 1) hi else first lo mid
        in
        let lo = first 0 n in
        let hi = min n (lo + count) in
        if lo >= hi then Proc.return acc
        else begin
          (* Iterate entry by entry, as leveldb's table iterator does:
             every visited entry costs a block access and decode work. *)
          let* () = A.compute scan_seek_cycles in
          let* fd = t.vfs.Vfs.open_ table.ss_path Fs_proto.rdonly in
          let fd = match fd with Ok fd -> fd | Error e -> failwith e in
          let entries = ref [] in
          let* () =
            Proc.repeat (hi - lo) (fun j ->
                let off, len = snd idx.(lo + j) in
                let* data = read_blob t fd ~off ~len in
                let key, value, _ = decode_entry data 0 in
                entries := (key, value) :: !entries;
                A.compute scan_item_cycles)
          in
          let* () = t.vfs.Vfs.close fd in
          Proc.return (List.rev_append !entries acc)
        end)
      [] t.tables
  in
  (* Merge: newest (memtable, then newer tables already first in the
     accumulated list order) wins. *)
  let merged =
    List.fold_left
      (fun acc (k, v) -> if Smap.mem k acc then acc else Smap.add k v acc)
      Smap.empty
      (mem_part @ List.rev table_parts)
  in
  let* () =
    A.compute (cmp_cycles * (List.length table_parts + List.length mem_part))
  in
  let result =
    Smap.to_seq_from start merged |> List.of_seq
    |> List.filteri (fun i _ -> i < count)
  in
  Proc.return result
