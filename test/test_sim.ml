open M3v_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Time --- *)

let test_time_units () =
  check_int "ns" 1_000 (Time.ns 1);
  check_int "us" 1_000_000 (Time.us 1);
  check_int "ms" 1_000_000_000 (Time.ms 1);
  check_int "s" 1_000_000_000_000 (Time.s 1)

let test_time_cycles () =
  let ps_80mhz = Time.ps_per_cycle_of_hz 80_000_000 in
  check_int "80 MHz cycle" 12_500 ps_80mhz;
  let ps_3ghz = Time.ps_per_cycle_of_hz 3_000_000_000 in
  check_int "3 GHz cycle" 333 ps_3ghz;
  check_int "cycles round trip" 100
    (Time.to_cycles ~ps_per_cycle:ps_80mhz (Time.of_cycles ~ps_per_cycle:ps_80mhz 100))

let test_time_freq_rounding () =
  check_int "100 MHz" 10_000 (Time.ps_per_cycle_of_hz 100_000_000);
  check_bool "never zero" true (Time.ps_per_cycle_of_hz max_int >= 1)

(* --- Event_queue --- *)

let test_queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:30 "c";
  Event_queue.push q ~time:10 "a";
  Event_queue.push q ~time:20 "b";
  let order = List.init 3 (fun _ -> Event_queue.pop q |> Option.get |> snd) in
  Alcotest.(check (list string)) "min-heap order" [ "a"; "b"; "c" ] order;
  check_bool "drained" true (Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  List.iteri (fun i v -> Event_queue.push q ~time:(if i = 1 then 5 else 5) v)
    [ "x"; "y"; "z" ];
  let order = List.init 3 (fun _ -> Event_queue.pop q |> Option.get |> snd) in
  Alcotest.(check (list string)) "FIFO on equal timestamps" [ "x"; "y"; "z" ] order

let test_queue_many =
  QCheck.Test.make ~name:"event queue pops in sorted order" ~count:100
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun time -> Event_queue.push q ~time ()) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (time, ()) -> drain (time :: acc)
      in
      drain [] = List.sort compare times)

(* Boxed floats as payloads.  The payload arrays are read and written as
   arrays of pointers, so a float payload must be stored as its box.  A
   flat float array, which [Array.make] builds from a float fill value,
   would hide the boxes from the GC: after a minor collection they are
   gone, and fresh allocation reuses their memory.  The first push of a
   fresh queue or engine sizes its arrays from that push's payloads. *)
let gc_and_reuse () =
  Gc.minor ();
  let junk i = Bytes.make 16 (Char.chr (i land 0xff)) in
  ignore (Sys.opaque_identity (List.init 2000 junk))

let test_queue_float_payloads () =
  let x i = float_of_int i +. 0.5 and y i = float_of_int i +. 0.25 in
  let check_float = Alcotest.(check (float 0.)) in
  (* 40 entries: past the sorted mode's 32, so the heap reorders them. *)
  let n = 40 in
  let q = Event_queue.create2 ~capacity:1 () in
  for i = 0 to n - 1 do
    let t = i * 7 mod n in
    Event_queue.push2 q ~time:t (x t) (y t)
  done;
  gc_and_reuse ();
  for t = 0 to n - 1 do
    check_int "time" t (Event_queue.next_time q);
    check_float "first payload" (x t) (Event_queue.top_fst q);
    check_float "second payload" (y t) (Event_queue.top_snd q);
    Event_queue.drop_min q
  done;
  let q = Event_queue.create ~capacity:1 () in
  List.iter (fun t -> Event_queue.push q ~time:t (x t)) [ 3; 1; 2 ];
  gc_and_reuse ();
  check_float "pop_min" (x 1) (Event_queue.pop_min q);
  (match Event_queue.pop q with
  | Some (2, v) -> check_float "pop" (x 2) v
  | _ -> Alcotest.fail "pop: no entry at time 2");
  check_float "pop_min, last" (x 3) (Event_queue.pop_min q);
  let eng = Engine.create () in
  let got = ref [] in
  let note (v : float) = got := v :: !got in
  Engine.at_apply eng ~time:5 note (x 5);
  Engine.at eng ~time:1 (fun () -> note (x 1));
  Engine.at_apply eng ~time:3 note (x 3);
  gc_and_reuse ();
  check_int "three events" 3 (Engine.run eng);
  Alcotest.(check (list (float 0.)))
    "engine handlers got their floats" [ x 1; x 3; x 5 ] (List.rev !got)

(* [Int_table] against [Hashtbl] as the model: a script of replace,
   remove and lookups over few keys (so bindings collide, are replaced
   and removed), negative and large ones included, long enough to resize
   the buckets. *)
let test_int_table_model =
  let key =
    QCheck.Gen.oneofl [ 0; 1; 2; 3; 17; -5; max_int; min_int; 1 lsl 40 ]
  in
  let op =
    QCheck.Gen.(
      pair (int_bound 2) (oneof [ key; map (fun k -> k * 9) (int_bound 40) ]))
  in
  QCheck.Test.make ~name:"Int_table = Hashtbl on int keys" ~count:300
    QCheck.(make Gen.(list_size (int_bound 120) op))
    (fun script ->
      let t = Int_table.create 1 and m = Hashtbl.create 1 in
      List.for_all
        (fun (o, k) ->
          (match o with
          | 0 ->
              Int_table.replace t k (k + 1);
              Hashtbl.replace m k (k + 1)
          | 1 ->
              Int_table.remove t k;
              Hashtbl.remove m k
          | _ -> ());
          Int_table.find_opt t k = Hashtbl.find_opt m k
          && Int_table.mem t k = Hashtbl.mem m k
          && (match Int_table.find t k with
             | v -> Hashtbl.find_opt m k = Some v
             | exception Not_found -> not (Hashtbl.mem m k))
          && Int_table.length t = Hashtbl.length m
          && Hashtbl.fold
               (fun k v ok -> ok && Int_table.find_opt t k = Some v)
               m true)
        script)

(* --- Engine --- *)

let test_engine_runs_in_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.at eng ~time:(Time.ns 50) (fun () -> log := 2 :: !log);
  Engine.at eng ~time:(Time.ns 10) (fun () -> log := 1 :: !log);
  Engine.after eng ~delay:(Time.ns 100) (fun () -> log := 3 :: !log);
  let n = Engine.run eng in
  check_int "events processed" 3 n;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  check_int "clock at last event" (Time.ns 100) (Engine.now eng)

let test_engine_nested_scheduling () =
  let eng = Engine.create () in
  let hits = ref 0 in
  Engine.after eng ~delay:10 (fun () ->
      incr hits;
      Engine.after eng ~delay:10 (fun () ->
          incr hits;
          Engine.after eng ~delay:10 (fun () -> incr hits)));
  ignore (Engine.run eng);
  check_int "nested chain ran" 3 !hits;
  check_int "time accumulated" 30 (Engine.now eng)

let test_engine_horizon () =
  let eng = Engine.create () in
  let hits = ref 0 in
  Engine.after eng ~delay:10 (fun () -> incr hits);
  Engine.after eng ~delay:1000 (fun () -> incr hits);
  let n = Engine.run ~until:500 eng in
  check_int "only events before horizon" 1 n;
  check_int "clock moved to horizon" 500 (Engine.now eng);
  ignore (Engine.run eng);
  check_int "rest ran later" 2 !hits

let test_engine_rejects_past () =
  let eng = Engine.create () in
  Engine.after eng ~delay:100 (fun () -> ());
  ignore (Engine.run eng);
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.at: time 10ps is in the past (now 100ps)")
    (fun () -> Engine.at eng ~time:10 (fun () -> ()))

(* --- Engine.run single-source accounting (observer-enqueue-at-until) --- *)

let test_engine_counts_mid_run_enqueues_once () =
  (* A handler that fires at exactly [until] and enqueues more work at
     [until]: the run must process it in the same call and count it
     exactly once (the return value is the delta of events_processed). *)
  let e = Engine.create () in
  let fired = ref 0 in
  let rec chain depth () =
    incr fired;
    if depth > 0 then Engine.at e ~time:100 (chain (depth - 1))
  in
  Engine.at e ~time:50 (fun () -> incr fired);
  Engine.at e ~time:100 (chain 3);
  let n = Engine.run ~until:100 e in
  check_int "all events fired" 5 !fired;
  check_int "return counts chained work exactly once" 5 n;
  check_int "nothing pending" 0 (Engine.pending e);
  check_int "clock at until" 100 (Engine.now e)

let test_engine_observer_enqueue_at_until () =
  (* The dispatch-loop observer fires every 1024 processed events; have it
     enqueue one extra event at exactly [until].  Total counted over the
     run must equal total handler firings — no double count, no loss. *)
  let e = Engine.create () in
  let fired = ref 0 in
  let extras = ref 0 in
  for i = 1 to 1500 do
    Engine.at e ~time:i (fun () -> incr fired)
  done;
  Engine.set_observer e
    (Some
       (fun _now _pending ->
         if !extras < 2 then begin
           incr extras;
           Engine.at e ~time:2000 (fun () -> incr fired)
         end));
  let n = Engine.run ~until:2000 e in
  Engine.set_observer e None;
  check_bool "observer fired" true (!extras >= 1);
  check_int "every handler fired" (1500 + !extras) !fired;
  check_int "return = firings" (1500 + !extras) n;
  check_int "nothing pending" 0 (Engine.pending e);
  check_int "clock at until" 2000 (Engine.now e)

let test_engine_counts_across_max_events_cuts () =
  (* Slicing one logical run with max_events must conserve the count:
     the per-call returns sum to the total processed. *)
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 100 do
    Engine.at e ~time:i (fun () -> incr fired)
  done;
  let total = ref 0 in
  let rec drain () =
    let n = Engine.run ~until:100 ~max_events:7 e in
    total := !total + n;
    if n > 0 then drain ()
  in
  drain ();
  check_int "all fired" 100 !fired;
  check_int "slice counts sum to total" 100 !total;
  check_int "processed ledger agrees" 100 (Engine.events_processed e)

(* --- Engine.spin: retry loops ---

   A script of senders sharing a pool of credits, plus interfering
   events.  Each sender makes a few sends; a send that finds no credit
   fails [settle] later and is retried every [gap], as TileMux retries a
   stalled SEND.  [run_script ~parked] runs the script with each retry
   loop either built from [Engine.after] (the reference: poll, its
   failed completion [settle] later, the next poll [gap] after that) or
   run by [Engine.spin] ([~parked:true]).  Both runs must log the same (label, time)
   pairs and report the same counts after every slice. *)

type action =
  | Note
  | Grant  (** one more credit *)
  | Take of int  (** borrow a credit, if any, and give it back this much later *)
  | Child of int  (** push a child event this far ahead *)

type script = {
  gap : int;
  settle : int;
  credits : int;
  senders : (int * int list) list;
      (** start time, then the think time before each further send *)
  ack_after : int;  (** a delivered send's credit comes back this much later *)
  noise : (int * action) list;
  slices : (int option * int option) list;  (** [until], [max_events] *)
}

type outcome = {
  log : (string * int) list;
  counts : (int * int * int * int) list;
      (** per slice: returned, pending, events_processed, now *)
}

let run_script ~parked sc =
  let e = Engine.create () in
  let log = ref [] in
  let note label = log := (label, Engine.now e) :: !log in
  let credits = ref sc.credits in
  Engine.set_observer e
    (Some (fun now pending -> log := ("observe " ^ string_of_int pending, now) :: !log));
  List.iteri
    (fun i (start, thinks) ->
      let name = "s" ^ string_of_int i ^ " " in
      let rec send thinks =
        let rec attempt () =
          if !credits <= 0 then begin
            note (name ^ "stall");
            Engine.after e ~delay:sc.settle failed
          end
          else begin
            decr credits;
            note (name ^ "send");
            Engine.after e ~delay:sc.settle sent
          end
        and failed () =
          note (name ^ "failed");
          if parked then
            Engine.spin e ~gap:sc.gap ~settle:sc.settle
              ~poll:(fun () ->
                if !credits <= 0 then begin
                  note (name ^ "stall");
                  true
                end
                else begin
                  attempt ();
                  false
                end)
              ~settled:(fun () -> note (name ^ "failed"))
          else Engine.after e ~delay:sc.gap attempt
        and sent () =
          note (name ^ "sent");
          Engine.after e ~delay:sc.ack_after (fun () ->
              incr credits;
              note (name ^ "acked"));
          match thinks with
          | [] -> ()
          | d :: rest -> Engine.after e ~delay:d (fun () -> send rest)
        in
        attempt ()
      in
      Engine.at e ~time:start (fun () -> send thinks))
    sc.senders;
  List.iter
    (fun (time, action) ->
      Engine.at e ~time (fun () ->
          match action with
          | Note -> note "noise"
          | Grant ->
              incr credits;
              note "grant"
          | Take back ->
              if !credits > 0 then begin
                decr credits;
                note "take";
                Engine.after e ~delay:back (fun () ->
                    incr credits;
                    note "give back")
              end
          | Child d ->
              note "parent";
              Engine.after e ~delay:d (fun () -> note "child")))
    sc.noise;
  let counts () =
    (Engine.pending e, Engine.events_processed e, Engine.now e)
  in
  let sliced =
    List.map
      (fun (until, max_events) ->
        let n = Engine.run ?until ?max_events e in
        let p, ev, now = counts () in
        (n, p, ev, now))
      sc.slices
  in
  (* Every stall ends (credits only come back), but a broken engine
     must not run for ever. *)
  let n = Engine.run ~max_events:100_000 e in
  let p, ev, now = counts () in
  { log = List.rev !log; counts = sliced @ [ (n, p, ev, now) ] }

let gen_script seed =
  let st = Random.State.make [| seed |] in
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let list n f = List.init n (fun _ -> f ()) in
  let gap = int 1 6 and settle = int 0 3 in
  let noise () =
    let time = int 0 80 in
    let action =
      match int 0 5 with
      | 0 -> Note
      | 1 -> Grant
      | 2 -> Take (int 0 (2 * (gap + settle)))
      | _ ->
          Child
            (match int 0 3 with
            | 0 -> 0
            | 1 -> gap
            | 2 -> settle
            | _ -> gap + settle)
    in
    (time, action)
  in
  let slice () =
    ( (if int 0 3 = 0 then None else Some (int 0 100)),
      if int 0 2 = 0 then None else Some (int 0 30) )
  in
  {
    gap;
    settle;
    credits = int 1 2;
    senders = list (int 1 3) (fun () -> (int 0 20, list (int 0 3) (fun () -> int 0 10)));
    ack_after = int 1 40;
    noise = list (int 0 25) noise;
    slices = list (int 0 5) slice;
  }

let test_spin_replays_heap_loop =
  QCheck.Test.make ~name:"Engine.spin replays the two-event retry loop"
    ~count:2000
    QCheck.(make ~print:string_of_int (Gen.int_bound 1_000_000_000))
    (fun seed ->
      let sc = gen_script seed in
      run_script ~parked:false sc = run_script ~parked:true sc)

(* A long stall: 1,500 polls, so the observer's every-1,024-events
   cadence falls on [Engine.spin]'s steps as it would on [Engine.after]'s
   events. *)
let test_spin_observer_cadence () =
  let sc =
    {
      gap = 2;
      settle = 1;
      credits = 0;
      senders = [ (0, []) ];
      ack_after = 1;
      noise = [ (4500, Grant) ];
      slices = [ (Some 1000, None); (None, Some 700) ];
    }
  in
  let ref_run = run_script ~parked:false sc in
  check_bool "observer fired"
    true
    (List.exists (fun (l, _) -> String.starts_with ~prefix:"observe" l) ref_run.log);
  check_bool "parked run identical" true (ref_run = run_script ~parked:true sc)

(* Checkpoints marshal the engine, retry loops included.  A run cut
   while a loop runs, and one cut while none does, must resume from a
   [Marshal] copy exactly as the uninterrupted run goes on. *)
type ckpt_state = { eng : Engine.t; clog : (string * int) list ref }

let spin_scenario () =
  let eng = Engine.create () in
  let clog = ref [] in
  let note label = clog := (label, Engine.now eng) :: !clog in
  let credit = ref false in
  let rec attempt () =
    if !credit then note "send"
    else begin
      note "stall";
      Engine.after eng ~delay:1 (fun () ->
          note "failed";
          Engine.spin eng ~gap:5 ~settle:1
            ~poll:(fun () ->
              if !credit then begin
                attempt ();
                false
              end
              else begin
                note "stall";
                true
              end)
            ~settled:(fun () -> note "failed"))
    end
  in
  Engine.at eng ~time:10 attempt;
  Engine.at eng ~time:40 (fun () ->
      credit := true;
      note "grant");
  Engine.at eng ~time:60 (fun () -> note "later");
  { eng; clog }

let test_spin_checkpoint_resume () =
  let full = spin_scenario () in
  ignore (Engine.run full.eng);
  let log st = List.rev !(st.clog) in
  let resume ~cut ~parked =
    let st = spin_scenario () in
    ignore (Engine.run ~until:cut st.eng);
    let stalled = List.exists (fun (l, _) -> l = "stall") (log st) in
    let sent = List.exists (fun (l, _) -> l = "send") (log st) in
    check_bool (Printf.sprintf "cut at %d: loop parked" cut) parked (stalled && not sent);
    let copy : ckpt_state =
      Marshal.from_bytes (Marshal.to_bytes st [ Marshal.Closures ]) 0
    in
    let n = Engine.run copy.eng in
    Alcotest.(check (list (pair string int)))
      (Printf.sprintf "cut at %d: resumed log" cut)
      (log full) (log copy);
    check_int
      (Printf.sprintf "cut at %d: events" cut)
      (Engine.events_processed full.eng)
      (Engine.events_processed copy.eng);
    check_bool "resumed run did work" true (n > 0)
  in
  resume ~cut:5 ~parked:false;
  resume ~cut:23 ~parked:true;
  resume ~cut:50 ~parked:false

(* --- Proc --- *)

type Proc.op += Add_op of int
type Proc.resp += Sum of int

let run_proc p =
  (* A tiny runtime: sums Add_op operands. *)
  let total = ref 0 in
  let rec step = function
    | Proc.Finished -> ()
    | Proc.Request (Add_op n, k) ->
        total := !total + n;
        step (k (Sum !total))
    | Proc.Request (_, k) -> step (k Proc.Unit)
  in
  step (Proc.run p);
  !total

let test_proc_sequencing () =
  let open Proc.Syntax in
  let add n = Proc.perform (Add_op n) (function Sum s -> s | r -> Proc.decode_error "add" r) in
  let prog =
    let* a = add 1 in
    let* b = add 2 in
    let* c = add 3 in
    if a + b + c <> 1 + 3 + 6 then failwith "intermediate sums wrong";
    Proc.return ()
  in
  check_int "total" 6 (run_proc prog)

let test_proc_repeat () =
  let add n = Proc.perform (Add_op n) (fun _ -> ()) in
  check_int "repeat" 10 (run_proc (Proc.repeat 10 (fun _ -> add 1)))

let test_proc_fold_iter () =
  let add n = Proc.perform (Add_op n) (fun _ -> ()) in
  let open Proc.Syntax in
  let prog =
    let* () = Proc.iter_list add [ 5; 6 ] in
    let* total = Proc.fold_list (fun acc x -> Proc.map (fun () -> acc + x) (add x)) 0 [ 1; 2 ] in
    if total <> 3 then failwith "fold result wrong";
    Proc.return ()
  in
  check_int "ops summed" 14 (run_proc prog)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.next a = Rng.next b)
  done

let test_rng_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_split_independent () =
  let base = Rng.create ~seed:7 in
  let s1 = Rng.split base in
  let s2 = Rng.split base in
  let differ = ref false in
  for _ = 1 to 20 do
    if Rng.next s1 <> Rng.next s2 then differ := true
  done;
  check_bool "split streams differ" true !differ

let test_rng_shuffle_permutes () =
  let rng = Rng.create ~seed:3 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

(* --- Stats --- *)

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "median" 2.5 s.Stats.median;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max;
  check_int "n" 4 s.Stats.n

let test_stats_percentile () =
  let xs = List.init 101 float_of_int in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile 100.0 xs)

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "constant sample" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  let sd = Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-6)) "known stddev" 2.13809 sd

let test_counter () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c "a";
  Stats.Counter.incr c "a";
  Stats.Counter.add c "b" 2.5;
  Alcotest.(check (float 1e-9)) "a" 2.0 (Stats.Counter.get c "a");
  Alcotest.(check (float 1e-9)) "b" 2.5 (Stats.Counter.get c "b");
  Alcotest.(check (float 1e-9)) "missing" 0.0 (Stats.Counter.get c "zzz");
  check_int "listing" 2 (List.length (Stats.Counter.to_list c))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ("time units", `Quick, test_time_units);
    ("time cycles", `Quick, test_time_cycles);
    ("time freq rounding", `Quick, test_time_freq_rounding);
    ("event queue order", `Quick, test_queue_order);
    ("event queue fifo ties", `Quick, test_queue_fifo_ties);
    ("event queue: float payloads survive", `Quick, test_queue_float_payloads);
    ("engine ordering", `Quick, test_engine_runs_in_order);
    ("engine nested", `Quick, test_engine_nested_scheduling);
    ("engine horizon", `Quick, test_engine_horizon);
    ("engine rejects past", `Quick, test_engine_rejects_past);
    ( "engine: mid-run enqueue at until counted once",
      `Quick,
      test_engine_counts_mid_run_enqueues_once );
    ( "engine: observer enqueue at until counted once",
      `Quick,
      test_engine_observer_enqueue_at_until );
    ( "engine: counts conserved across max_events cuts",
      `Quick,
      test_engine_counts_across_max_events_cuts );
    ("engine: parked steps keep the observer cadence", `Quick, test_spin_observer_cadence);
    ("engine: checkpoint mid-spin resumes identically", `Quick, test_spin_checkpoint_resume);
    ("proc sequencing", `Quick, test_proc_sequencing);
    ("proc repeat", `Quick, test_proc_repeat);
    ("proc fold/iter", `Quick, test_proc_fold_iter);
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng split", `Quick, test_rng_split_independent);
    ("rng shuffle", `Quick, test_rng_shuffle_permutes);
    ("stats summary", `Quick, test_stats_summary);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats stddev", `Quick, test_stats_stddev);
    ("stats counter", `Quick, test_counter);
  ]
  @ qsuite
      [
        test_queue_many;
        test_int_table_model;
        test_spin_replays_heap_loop;
        test_rng_bounds;
      ]
