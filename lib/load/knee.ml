type step = { k_offered : float; k_goodput : float; k_p99_us : float }
type verdict = { knee : int option; reason : string }

let min_efficiency = 0.5

let detect ?(slo_p99_us = infinity) steps =
  let arr = Array.of_list steps in
  let n = Array.length arr in
  let found = ref None in
  (try
     for i = 0 to n - 1 do
       let s = arr.(i) in
       if s.k_p99_us > slo_p99_us then begin
         found :=
           Some
             ( i,
               Printf.sprintf "p99 %.0f us exceeds SLO %.0f us" s.k_p99_us
                 slo_p99_us );
         raise Exit
       end;
       if i > 0 then begin
         let prev = arr.(i - 1) in
         let d_off = s.k_offered -. prev.k_offered in
         (* Only increasing-load transitions can witness a scaling stall;
            a flat or shrinking step carries no signal. *)
         if d_off > 0.0 then begin
           let eff = (s.k_goodput -. prev.k_goodput) /. d_off in
           if eff < min_efficiency then begin
             found :=
               Some
                 ( i,
                   Printf.sprintf
                     "goodput stopped scaling (marginal efficiency %.2f < \
                      %.2f)"
                     eff min_efficiency );
             raise Exit
           end
         end
       end
     done
   with Exit -> ());
  match !found with
  | Some (i, reason) -> { knee = Some i; reason }
  | None -> { knee = None; reason = "no knee within the sweep" }
