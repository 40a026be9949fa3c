let block_size = 4096
let default_max_extent_blocks = 64

type ino = int
type extent = { e_start : int; e_blocks : int }

type node = {
  n_ino : ino;
  mutable n_size : int;
  n_kind : kind;
}

and kind = File of file | Dir of (string, ino) Hashtbl.t
and file = { mutable extents : extent list (* in file order, reversed *) }

type stat = { st_ino : ino; st_size : int; st_is_dir : bool; st_blocks : int }

type t = {
  max_ext : int;
  blocks : int;
  allocated : Bytes.t;  (* one byte per block: crude but fast bitmap *)
  mutable next_block : int;  (* rotating first-fit cursor *)
  mutable free : int;
  nodes : (ino, node) Hashtbl.t;
  mutable next_ino : ino;
}

let root = 0

let create ?(max_extent_blocks = default_max_extent_blocks) ~blocks () =
  if blocks <= 0 then invalid_arg "Fs_core.create: blocks must be positive";
  if max_extent_blocks <= 0 then invalid_arg "Fs_core.create: bad extent cap";
  let t =
    {
      max_ext = max_extent_blocks;
      blocks;
      allocated = Bytes.make blocks '\000';
      next_block = 0;
      free = blocks;
      nodes = Hashtbl.create 64;
      next_ino = 1;
    }
  in
  Hashtbl.replace t.nodes root
    { n_ino = root; n_size = 0; n_kind = Dir (Hashtbl.create 16) };
  t

let max_extent_blocks t = t.max_ext
let total_blocks t = t.blocks
let free_blocks t = t.free

let node t ino =
  match Hashtbl.find_opt t.nodes ino with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Fs_core: unknown inode %d" ino)

let is_dir t ino = match (node t ino).n_kind with Dir _ -> true | File _ -> false

(* --- block allocator: first fit with a rotating cursor, growing runs so
   that sequential writes produce long (capped) extents --- *)

let block_free t b = Bytes.get t.allocated b = '\000'

let alloc_run t ~want =
  if t.free = 0 then None
  else begin
    let want = min want t.max_ext in
    (* Find the first free block starting from the cursor, wrapping. *)
    let rec find_start i tried =
      if tried >= t.blocks then None
      else
        let b = (t.next_block + i) mod t.blocks in
        if block_free t b then Some b else find_start (i + 1) (tried + 1)
    in
    match find_start 0 0 with
    | None -> None
    | Some start ->
        let len = ref 0 in
        while
          !len < want
          && start + !len < t.blocks
          && block_free t (start + !len)
        do
          incr len
        done;
        for i = start to start + !len - 1 do
          Bytes.set t.allocated i '\001'
        done;
        t.free <- t.free - !len;
        t.next_block <- (start + !len) mod t.blocks;
        Some { e_start = start; e_blocks = !len }
  end

let free_extent t e =
  for i = e.e_start to e.e_start + e.e_blocks - 1 do
    if not (block_free t i) then begin
      Bytes.set t.allocated i '\000';
      t.free <- t.free + 1
    end
  done

(* --- path handling --- *)

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let rec walk t ino = function
  | [] -> Some ino
  | name :: rest -> (
      match (node t ino).n_kind with
      | Dir entries -> (
          match Hashtbl.find_opt entries name with
          | Some child -> walk t child rest
          | None -> None)
      | File _ -> None)

let lookup t path = walk t root (split_path path)

let parent_and_name t path =
  match List.rev (split_path path) with
  | [] -> Error "cannot address the root this way"
  | name :: rev_dirs -> (
      match walk t root (List.rev rev_dirs) with
      | Some dir_ino -> (
          match (node t dir_ino).n_kind with
          | Dir entries -> Ok (entries, name)
          | File _ -> Error "not a directory")
      | None -> Error "no such directory")

let new_node t kind =
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  let n = { n_ino = ino; n_size = 0; n_kind = kind } in
  Hashtbl.replace t.nodes ino n;
  ino

let mkdir t path =
  match parent_and_name t path with
  | Error e -> Error e
  | Ok (entries, name) ->
      if Hashtbl.mem entries name then Error "exists"
      else begin
        let ino = new_node t (Dir (Hashtbl.create 8)) in
        Hashtbl.replace entries name ino;
        Ok ino
      end

let create_file t path =
  match parent_and_name t path with
  | Error e -> Error e
  | Ok (entries, name) -> (
      match Hashtbl.find_opt entries name with
      | Some ino when not (is_dir t ino) -> Ok ino (* open existing *)
      | Some _ -> Error "is a directory"
      | None ->
          let ino = new_node t (File { extents = [] }) in
          Hashtbl.replace entries name ino;
          Ok ino)

let file_extents n =
  match n.n_kind with
  | File f -> f
  | Dir _ -> invalid_arg "Fs_core: not a file"

let truncate t ino =
  let n = node t ino in
  let f = file_extents n in
  List.iter (free_extent t) f.extents;
  f.extents <- [];
  n.n_size <- 0

let unlink t path =
  match parent_and_name t path with
  | Error e -> Error e
  | Ok (entries, name) -> (
      match Hashtbl.find_opt entries name with
      | None -> Error "no such entry"
      | Some ino -> (
          match (node t ino).n_kind with
          | File _ ->
              truncate t ino;
              Hashtbl.remove entries name;
              Hashtbl.remove t.nodes ino;
              Ok ()
          | Dir d ->
              if Hashtbl.length d > 0 then Error "directory not empty"
              else begin
                Hashtbl.remove entries name;
                Hashtbl.remove t.nodes ino;
                Ok ()
              end))

let readdir t path =
  match lookup t path with
  | None -> Error "no such directory"
  | Some ino -> (
      match (node t ino).n_kind with
      | Dir entries ->
          Ok (Hashtbl.fold (fun k _ acc -> k :: acc) entries [] |> List.sort compare)
      | File _ -> Error "not a directory")

let node_blocks n =
  match n.n_kind with
  | Dir _ -> 0
  | File f -> List.fold_left (fun acc e -> acc + e.e_blocks) 0 f.extents

let fstat t ino =
  let n = node t ino in
  {
    st_ino = ino;
    st_size = n.n_size;
    st_is_dir = (match n.n_kind with Dir _ -> true | File _ -> false);
    st_blocks = node_blocks n;
  }

let stat t path =
  match lookup t path with
  | None -> Error "no such entry"
  | Some ino -> Ok (fstat t ino)

let size t ino = (node t ino).n_size
let set_size t ino sz = (node t ino).n_size <- max (node t ino).n_size sz

(* Extents are stored reversed (most recent first); walk in file order. *)
let extents_in_order f = List.rev f.extents

(* Find the extent containing file byte [off]: returns
   (region byte offset of window start, window byte length, file offset of
   window start). *)
let find_extent t ino ~off =
  let n = node t ino in
  let f = file_extents n in
  let rec scan file_off = function
    | [] -> None
    | e :: rest ->
        let ext_bytes = e.e_blocks * block_size in
        if off < file_off + ext_bytes then
          Some (e.e_start * block_size, ext_bytes, file_off)
        else scan (file_off + ext_bytes) rest
  in
  scan 0 (extents_in_order f)

let read_extent t ino ~off =
  let n = node t ino in
  if off >= n.n_size then None
  else
    match find_extent t ino ~off with
    | None -> None
    | Some (region_off, win_len, file_off) ->
        (* Clip the window to the file size. *)
        let len = min win_len (n.n_size - file_off) in
        Some (region_off, len, file_off)

let ensure_write_extent t ino ~off =
  let n = node t ino in
  let f = file_extents n in
  match find_extent t ino ~off with
  | Some win -> (win, [])
  | None ->
      (* Allocate fresh extents until [off] is covered. *)
      let allocated = ref [] in
      let rec extend () =
        match find_extent t ino ~off with
        | Some win -> (win, List.rev !allocated)
        | None -> (
            match alloc_run t ~want:t.max_ext with
            | None -> failwith "Fs_core: out of blocks"
            | Some e ->
                f.extents <- e :: f.extents;
                allocated := e :: !allocated;
                extend ())
      in
      extend ()

let ensure_range t ino ~off ~len =
  let _, head = ensure_write_extent t ino ~off in
  if len <= 0 then head
  else head @ snd (ensure_write_extent t ino ~off:(off + len - 1))

let open_file t path ~create ~trunc =
  let r =
    if create then create_file t path
    else
      match lookup t path with
      | Some ino -> Ok ino
      | None -> Error "no such file"
  in
  (match r with Ok ino when trunc -> truncate t ino | Ok _ | Error _ -> ());
  r

let preallocate t ino ~blocks =
  let n = node t ino in
  let f = file_extents n in
  let have () = List.fold_left (fun acc e -> acc + e.e_blocks) 0 f.extents in
  let rec grow () =
    let missing = blocks - have () in
    if missing > 0 then
      match alloc_run t ~want:missing with
      | None -> failwith "Fs_core: out of blocks"
      | Some e ->
          f.extents <- e :: f.extents;
          grow ()
  in
  grow ()

let segments t ino ~off ~len =
  let len = max 0 (min len (size t ino - off)) in
  let rec collect pos acc =
    if pos >= len then List.rev acc
    else
      match find_extent t ino ~off:(off + pos) with
      | None -> List.rev acc
      | Some (region_off, win_len, file_off) ->
          let in_win = off + pos - file_off in
          let take = min (len - pos) (win_len - in_win) in
          collect (pos + take) ((region_off + in_win, pos, take) :: acc)
  in
  collect 0 []

let check_invariants t =
  let seen = Hashtbl.create 256 in
  let error = ref None in
  Hashtbl.iter
    (fun ino n ->
      match n.n_kind with
      | Dir _ -> ()
      | File f ->
          List.iter
            (fun e ->
              if e.e_blocks <= 0 || e.e_blocks > t.max_ext then
                error := Some (Printf.sprintf "inode %d: bad extent size %d" ino e.e_blocks);
              for b = e.e_start to e.e_start + e.e_blocks - 1 do
                if b < 0 || b >= t.blocks then
                  error := Some (Printf.sprintf "inode %d: block %d out of range" ino b)
                else begin
                  if Hashtbl.mem seen b then
                    error := Some (Printf.sprintf "block %d referenced twice" b);
                  Hashtbl.replace seen b ();
                  if block_free t b then
                    error := Some (Printf.sprintf "block %d in use but marked free" b)
                end
              done)
            f.extents)
    t.nodes;
  (* Free count must be consistent with the bitmap. *)
  let marked = ref 0 in
  for b = 0 to t.blocks - 1 do
    if not (block_free t b) then incr marked
  done;
  if t.blocks - !marked <> t.free then
    error := Some "free counter out of sync with bitmap";
  match !error with Some e -> Error e | None -> Ok ()
