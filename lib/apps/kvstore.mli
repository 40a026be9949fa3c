(** A log-structured merge-tree key-value store (the leveldb stand-in for
    the cloud-service benchmark, paper section 6.5.2).

    Writes go to a write-ahead log and an in-memory memtable; when the
    memtable exceeds its limit it is flushed to an immutable sorted string
    table (SSTable) file.  Reads consult the memtable and then the tables
    newest-first; scans merge all levels and walk large file ranges, which
    is what makes them the most expensive YCSB operation.  When too many
    tables accumulate they are compacted into one.

    A table file holds its entries in key order, each as klen:u16,
    vlen:u32, key, value (little endian); its sorted index of key to
    entry offset and length stays in memory.  Every file write goes
    through one 4 KiB I/O buffer, as full pages and then the remainder:
    a WAL record and a flushed table are gathered into it straight from
    the key and value, and a compaction merges the tables' indexes (of
    equal keys the newest table's wins) and gathers each surviving entry
    from the bytes it read back, after checking those bytes against the
    index ([Failure] on a mismatch).

    All persistence goes through the portable {!M3v_os.Vfs.t}, so the same
    store runs on m3fs and on the Linux model's tmpfs. *)

type t

val create :
  vfs:M3v_os.Vfs.t ->
  dir:string ->
  ?memtable_limit:int ->
  ?compact_threshold:int ->
  unit ->
  (t, string) result M3v_sim.Proc.t

val put : t -> key:string -> value:bytes -> unit M3v_sim.Proc.t
val get : t -> key:string -> bytes option M3v_sim.Proc.t

(** [scan t ~start ~count] returns up to [count] key-value pairs with
    keys >= [start], in key order. *)
val scan : t -> start:string -> count:int -> (string * bytes) list M3v_sim.Proc.t

(** Force the memtable out to an SSTable. *)
val flush : t -> unit M3v_sim.Proc.t

val sstable_count : t -> int
val compactions : t -> int
