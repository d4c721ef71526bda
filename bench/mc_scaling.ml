(* Serial-vs-parallel throughput of the Monte-Carlo fault-injection engine,
   plus the determinism check that makes the parallel numbers trustworthy:
   the outcome at every domain count must be byte-identical to serial.

   Rows only go up to the machine's recommended domain count — a row for
   more domains than cores would measure oversubscription, not scaling.
   The per-phase rows split the trials of the kernel into its three
   stages (track sampling, crossing scan, switch-level evaluation), each
   with its minor-heap words per trial.  Every row is timed once per
   round and keeps its best round: rounds interleave the rows, so a slow
   spell of a shared machine hits all of them alike.  Results land in
   BENCH_mcscale.json, which the perf ratchet gates. *)

let rules = Pdk.Rules.default

let throughput trials dt = float_of_int trials /. Float.max 1e-9 dt

let rounds = 7

(* Trials of the per-phase rows (each stage keeps every trial's output),
   and how often a phase row repeats its stage within one timing. *)
let phase_trials = 20_000
let phase_reps = 10

(* The three stages of [Fault.Injector.run_trial], each over every trial
   with the previous stage's outputs kept: the same draws, scans and
   closures a campaign runs, in the same order.  Returns one thunk per
   stage; a stage only reads what the stage before it wrote. *)
let phases (cfg : Fault.Injector.config) cell =
  let trials = cfg.Fault.Injector.trials in
  let tracks = cfg.Fault.Injector.tracks_per_trial in
  let k = Fault.Injector.compile cell in
  let regions = [| k.Fault.Injector.pun; k.Fault.Injector.pdn |] in
  let segs = Array.make (trials * 2 * tracks * 4) 0. in
  let seg = Array.make 4 0. in
  let slot i r t = ((((i * 2) + r) * tracks) + t) * 4 in
  let sample () =
    for i = 0 to trials - 1 do
      let rng =
        Parallel.Split_rng.state ~seed:cfg.Fault.Injector.seed ~stream:i
      in
      for r = 0 to 1 do
        let bbox = (Fault.Crossing.fabric regions.(r)).Layout.Fabric.bbox in
        for t = 0 to tracks - 1 do
          Fault.Track.sample_into rng ~bbox
            ~max_angle_deg:cfg.Fault.Injector.max_angle_deg
            ~margin:cfg.Fault.Injector.margin seg;
          Array.blit seg 0 segs (slot i r t) 4
        done
      done
    done
  in
  let strays = Array.init trials (fun _ -> Logic.Switch_graph.strays ()) in
  let hits = Fault.Crossing.scratch () in
  let crossings () =
    for i = 0 to trials - 1 do
      Logic.Switch_graph.clear_strays strays.(i);
      for r = 0 to 1 do
        for t = 0 to tracks - 1 do
          Array.blit segs (slot i r t) (Fault.Crossing.segment hits) 0 4;
          Fault.Crossing.strays_into regions.(r) hits strays.(i)
        done
      done
    done
  in
  let drives =
    Array.make (Layout.Cell.prepared_rows k.Fault.Injector.prep)
      Logic.Switch_graph.Floating
  in
  let failures = ref 0 in
  let eval () =
    failures := 0;
    for i = 0 to trials - 1 do
      Layout.Cell.drives_into k.Fault.Injector.prep strays.(i) drives;
      if not (Layout.Cell.matches_reference k.Fault.Injector.prep drives) then
        incr failures
    done
  in
  sample ();
  crossings ();
  [ ("sample", sample); ("crossings", crossings); ("eval", eval) ]

let run ?(trials = 100_000) () =
  print_newline ();
  print_endline "Monte-Carlo engine scaling (trials/sec, NAND3 immune cell)";
  print_endline "==========================================================";
  let cell =
    Layout.Cell.make_exn ~rules ~fn:(Logic.Cell_fun.nand 3)
      ~style:Layout.Cell.Immune_new ~scheme:Layout.Cell.Scheme1 ~drive:4
  in
  let cfg = { Fault.Injector.default_config with Fault.Injector.trials } in
  let serial = Fault.Injector.run ~domains:1 cfg cell in
  let cores = Domain.recommended_domain_count () in
  let mismatches = ref 0 in
  let campaign domains () =
    if Fault.Injector.run ~domains cfg cell <> serial then incr mismatches
  in
  let ptrials = min trials phase_trials in
  (* name, trials per timing, runs per timing, thunk, extras *)
  let rows =
    List.map
      (fun d ->
        ( Printf.sprintf "domains%d" d, trials, 1, campaign d,
          [ ("domains", float_of_int d) ] ))
      (List.filter (fun d -> d <= cores) [ 1; 2; 4 ])
    @ List.map
        (fun (name, f) -> (name, ptrials, phase_reps, f, []))
        (phases { cfg with Fault.Injector.trials = ptrials } cell)
  in
  let best = Array.make (List.length rows) (infinity, 0.) in
  for _ = 1 to rounds do
    List.iteri
      (fun i (_, n, reps, f, _) ->
        (* every timing starts from the same collector state *)
        Gc.full_major ();
        let w0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          f ()
        done;
        let dt = (Unix.gettimeofday () -. t0) /. float_of_int reps in
        let words =
          (Gc.minor_words () -. w0) /. float_of_int (reps * n)
        in
        if dt < fst best.(i) then best.(i) <- (dt, words))
      rows
  done;
  Printf.printf "  %-10s %8s %10s %12s %9s %12s\n" "row" "trials" "time (ms)"
    "trials/sec" "speedup" "words/trial";
  let serial_dt = fst best.(0) in
  let records =
    List.mapi
      (fun i (name, n, _, _, extras) ->
        let dt, words = best.(i) in
        let speedup =
          match extras with
          | [ ("domains", _) ] -> Printf.sprintf "%8.2fx" (serial_dt /. dt)
          | _ -> ""
        in
        Printf.printf "  %-10s %8d %10.2f %12.0f %9s %12.1f\n" name n
          (1000. *. dt) (throughput n dt) speedup words;
        Bench_json.entry
          ~extras:
            (extras
            @ [ ("trials", float_of_int n); ("words_per_trial", words) ])
          ~name:("mcscale." ^ name) ~wall_ms:(1000. *. dt)
          ~throughput:(throughput n dt) ())
      rows
  in
  Printf.printf
    "  (%d hardware cores available; rows stop at that many domains; \
     words/trial of a campaign row counts only the calling domain)\n"
    cores;
  Bench_json.write ~bench:"mcscale" records;
  if !mismatches > 0 then begin
    Printf.printf
      "FATAL: %d parallel campaign(s) diverged from the serial outcome\n"
      !mismatches;
    exit 1
  end
