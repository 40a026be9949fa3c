module Area = M3v_area.Area
module Sloc = M3v_area.Sloc

type result = {
  rows : (int * string * Area.resources) list;
  vdtu_vs_boom_percent : float;
  vdtu_vs_rocket_percent : float;
  virtualization_overhead_percent : float;
}

let run () =
  {
    rows = Area.table1_rows ();
    vdtu_vs_boom_percent = Area.vdtu_vs_core_percent Area.boom;
    vdtu_vs_rocket_percent = Area.vdtu_vs_core_percent Area.rocket;
    virtualization_overhead_percent = Area.virtualization_overhead_percent ();
  }

let print r =
  Format.printf "@.== Table 1: FPGA area consumption ==@.";
  Format.printf "  %-28s %9s %9s %9s@." "" "LUTs [k]" "FFs [k]" "BRAMs";
  List.iter
    (fun (indent, name, res) ->
      let pad = String.make (2 * indent) ' ' in
      Format.printf "  %-28s %9.1f %9.1f %9.1f@." (pad ^ name) res.Area.luts_k
        res.Area.ffs_k res.Area.brams)
    r.rows;
  Exp_common.print_kv ~title:"Table 1: derived claims (paper, section 6.1)"
    [
      ( "vDTU vs BOOM LUTs (paper: 10.6%)",
        Printf.sprintf "%.1f%%" r.vdtu_vs_boom_percent );
      ( "vDTU vs Rocket LUTs (paper: 32.6%)",
        Printf.sprintf "%.1f%%" r.vdtu_vs_rocket_percent );
      ( "virtualization logic overhead (paper: 6%)",
        Printf.sprintf "%.1f%%" r.virtualization_overhead_percent );
    ]

type complexity = {
  components : (string * int option) list;
  paper : (string * int) list;
}

let run_complexity () =
  {
    components =
      List.map (fun (label, dir) -> (label, Sloc.count_dir dir)) Sloc.our_components;
    paper =
      [
        ("controller (Rust)", Sloc.paper_controller_sloc);
        ("controller unsafe", Sloc.paper_controller_unsafe);
        ("TileMux (Rust)", Sloc.paper_tilemux_sloc);
        ("TileMux unsafe", Sloc.paper_tilemux_unsafe);
        ("NOVA microkernel (C++)", Sloc.paper_nova_sloc);
      ];
  }

let print_complexity c =
  Exp_common.print_kv ~title:"Section 6.1: software complexity, paper (SLOC)"
    (List.map (fun (l, v) -> (l, string_of_int v)) c.paper);
  Exp_common.print_kv ~title:"Section 6.1: software complexity, this reproduction (SLOC)"
    (List.map
       (fun (l, v) ->
         ( l,
           match v with
           | Some n -> string_of_int n
           | None -> "(source tree not found)" ))
       c.components)
