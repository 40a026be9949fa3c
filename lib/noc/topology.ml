type t = {
  tiles : int;
  routers : int;
  tile_router : int array; (* router each tile attaches to *)
  edges : (int * int) array; (* directed router-router edges *)
  (* routes.(src * tiles + dst): the links a packet crosses, in order *)
  routes : int array array;
}

(* Link id layout: [0, tiles) injection; [tiles, 2*tiles) ejection;
   [2*tiles, ...) router-router edges in [edges] order. *)
let build ~tiles ~routers ~tile_router ~undirected_edges =
  if tiles < 1 then invalid_arg "Topology: need at least one tile";
  let edges =
    List.concat_map (fun (a, b) -> [ (a, b); (b, a) ]) undirected_edges
    |> Array.of_list
  in
  let edge_index = Hashtbl.create 16 in
  Array.iteri (fun i e -> Hashtbl.replace edge_index e i) edges;
  (* BFS from every router to fill the next-hop matrix. *)
  let adj = Array.make routers [] in
  Array.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) edges;
  Array.iteri (fun i l -> adj.(i) <- List.sort compare l) adj;
  let next_hop = Array.make_matrix routers routers (-1) in
  for src = 0 to routers - 1 do
    let dist = Array.make routers max_int in
    let first = Array.make routers (-1) in
    dist.(src) <- 0;
    let queue = Queue.create () in
    Queue.add src queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            first.(v) <- (if u = src then v else first.(u));
            Queue.add v queue
          end)
        adj.(u)
    done;
    for dst = 0 to routers - 1 do
      if dst = src then next_hop.(src).(dst) <- src
      else if dist.(dst) = max_int then
        invalid_arg "Topology: disconnected router graph"
      else next_hop.(src).(dst) <- first.(dst)
    done
  done;
  (* Walk the next-hop matrix once per tile pair; packets then only read
     the resulting link arrays. *)
  let route src dst =
    if src = dst then [||]
    else begin
      let r_dst = tile_router.(dst) in
      let rec walk r acc =
        if r = r_dst then List.rev ((tiles + dst) :: acc)
        else
          let next = next_hop.(r).(r_dst) in
          walk next ((2 * tiles) + Hashtbl.find edge_index (r, next) :: acc)
      in
      Array.of_list (walk tile_router.(src) [ src ])
    end
  in
  let routes =
    Array.init (tiles * tiles) (fun i -> route (i / tiles) (i mod tiles))
  in
  { tiles; routers; tile_router; edges; routes }

let spread_tiles ~tiles ~routers =
  Array.init tiles (fun i -> i mod routers)

let star_mesh_2x2 ~tiles =
  build ~tiles ~routers:4
    ~tile_router:(spread_tiles ~tiles ~routers:4)
    ~undirected_edges:[ (0, 1); (1, 3); (3, 2); (2, 0) ]

let mesh ~cols ~rows ~tiles =
  if cols < 1 || rows < 1 then invalid_arg "Topology.mesh";
  let routers = cols * rows in
  let id c r = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id c r, id (c + 1) r) :: !edges;
      if r + 1 < rows then edges := (id c r, id c (r + 1)) :: !edges
    done
  done;
  build ~tiles ~routers
    ~tile_router:(spread_tiles ~tiles ~routers)
    ~undirected_edges:!edges

let ring ~routers ~tiles =
  if routers < 2 then invalid_arg "Topology.ring";
  let edges = List.init routers (fun i -> (i, (i + 1) mod routers)) in
  build ~tiles ~routers
    ~tile_router:(spread_tiles ~tiles ~routers)
    ~undirected_edges:edges

let single_router ~tiles =
  build ~tiles ~routers:1 ~tile_router:(Array.make tiles 0) ~undirected_edges:[]

let tiles t = t.tiles
let routers t = t.routers
let link_count t = (2 * t.tiles) + Array.length t.edges

let route_links t ~src ~dst =
  if src < 0 || src >= t.tiles || dst < 0 || dst >= t.tiles then
    invalid_arg "Topology.route: tile out of range";
  t.routes.((src * t.tiles) + dst)

let route t ~src ~dst = Array.to_list (route_links t ~src ~dst)

(* Every route between distinct tiles is injection + router edges +
   ejection. *)
let hops t ~src ~dst =
  if src = dst then 0 else Array.length (route_links t ~src ~dst) - 2

let link_name t id =
  if id < t.tiles then Printf.sprintf "tile%d->noc" id
  else if id < 2 * t.tiles then Printf.sprintf "noc->tile%d" (id - t.tiles)
  else
    let a, b = t.edges.(id - (2 * t.tiles)) in
    Printf.sprintf "r%d->r%d" a b
