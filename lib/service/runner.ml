let ( let* ) = Result.bind

let rules = Pdk.Rules.default

(* Flow jobs: resolve the source to a netlist, build the library the
   design needs, run the staged pipeline.  The result document carries
   sizes and metrics, never timings — see the mli determinism note. *)

let resolve_source = function
  | Job.Full_adder -> Ok (Flow.Full_adder.netlist ())
  | Job.Ripple bits -> Flow.Ripple_adder.netlist ~bits
  | Job.Netlist_text text -> Flow.Netlist_ir.of_string text
  | Job.Generated spec -> Flow.Generate.of_spec spec

let run_flow ~pass_cache (j : Job.flow_job) =
  let* netlist = resolve_source j.Job.source in
  let drives =
    List.sort_uniq Stdlib.compare
      (List.map
         (fun (i : Flow.Netlist_ir.instance) -> i.Flow.Netlist_ir.drive)
         netlist.Flow.Netlist_ir.instances)
  in
  let* lib = Stdcell.Library.cnfet ~drives () in
  let spec =
    Flow.Pipeline.spec_of_netlist ~scheme:j.Job.scheme ~aspect:j.Job.aspect
      ~lib netlist
  in
  let result, _report = Flow.Pipeline.run ~cache:pass_cache spec in
  let* r = result in
  let p = r.Flow.Pipeline.placement in
  Ok
    (Json.Obj
       [
         ("design", Json.Str netlist.Flow.Netlist_ir.design);
         ("instances",
          Json.int (List.length netlist.Flow.Netlist_ir.instances));
         ("unique_cells", Json.int (List.length r.Flow.Pipeline.cells));
         ("die_width", Json.int p.Flow.Placer.die_width);
         ("die_height", Json.int p.Flow.Placer.die_height);
         ("utilization", Json.Num (Flow.Placer.utilization p));
         ("gds_bytes", Json.int (String.length r.Flow.Pipeline.gds_bytes));
         ("spec_digest", Json.Str r.Flow.Pipeline.spec_digest);
       ])

let run_fault ~pool (j : Job.fault_job) =
  let* fn =
    match Logic.Cell_fun.find_opt j.Job.cell with
    | Some fn -> Ok fn
    | None ->
      Core.Diag.failf ~stage:"service.run"
        ~context:[ ("cell", j.Job.cell) ]
        "unknown cell function %s" j.Job.cell
  in
  let* cell =
    Layout.Cell.make ~rules ~fn ~style:j.Job.style
      ~scheme:Layout.Cell.Scheme1 ~drive:j.Job.drive
  in
  let config =
    {
      Fault.Injector.trials = j.Job.trials;
      tracks_per_trial = j.Job.tracks_per_trial;
      max_angle_deg = j.Job.max_angle_deg;
      margin = Fault.Injector.default_config.Fault.Injector.margin;
      seed = j.Job.seed;
    }
  in
  let o = Fault.Injector.run ~pool config cell in
  Ok
    (Json.Obj
       [
         ("cell", Json.Str cell.Layout.Cell.name);
         ("style", Json.Str (Job.style_string j.Job.style));
         ("trials", Json.int o.Fault.Injector.trials);
         ("functional_failures",
          Json.int o.Fault.Injector.functional_failures);
         ("shorted_trials", Json.int o.Fault.Injector.shorted_trials);
         ("fight_trials", Json.int o.Fault.Injector.fight_trials);
         ("float_trials", Json.int o.Fault.Injector.float_trials);
         ("stray_edges", Json.int o.Fault.Injector.stray_edges);
         ("failure_rate", Json.Num (Fault.Injector.failure_rate o));
       ])

(* Testgen documents are shared with the CLI's --json mode, so the shape
   lives here rather than in bin/.  Pure function of the result — no
   timings, no environment. *)
let testgen_json (r : Testgen.Campaign.result) =
  let d = r.Testgen.Campaign.dictionary in
  let v = r.Testgen.Campaign.vectors in
  let class_json (c : Testgen.Dictionary.fault_class) =
    Json.Obj
      [
        ("count", Json.int c.Testgen.Dictionary.count);
        ("first_trial", Json.int c.Testgen.Dictionary.first_trial);
        ("rows",
         Json.Arr
           (List.map
              (fun (row, drive) ->
                Json.Obj
                  [
                    ("row", Json.int row);
                    ("drive",
                     Json.Str (Logic.Switch_graph.drive_string drive));
                  ])
              c.Testgen.Dictionary.signature));
      ]
  in
  Json.Obj
    [
      ("cell", Json.Str r.Testgen.Campaign.cell);
      ("style", Json.Str (Job.style_string r.Testgen.Campaign.style));
      ("scheme",
       Json.Str (Testgen.Report.scheme_string r.Testgen.Campaign.scheme));
      ("trials", Json.int d.Testgen.Dictionary.trials);
      ("failing", Json.int d.Testgen.Dictionary.failing);
      ("classes", Json.Arr (List.map class_json d.Testgen.Dictionary.classes));
      ("vectors",
       Json.Obj
         [
           ("rows", Json.Arr (List.map Json.int v.Testgen.Vectors.vectors));
           ("covered", Json.int v.Testgen.Vectors.covered);
           ("classes", Json.int v.Testgen.Vectors.classes);
           ("optimal",
            match v.Testgen.Vectors.optimal with
            | Some n -> Json.int n
            | None -> Json.Null);
         ]);
      ("spare_curve",
       Json.Arr
         (List.map
            (fun (p : Testgen.Repair.spare_point) ->
              Json.Obj
                [
                  ("spares", Json.int p.Testgen.Repair.spares);
                  ("repaired", Json.int p.Testgen.Repair.repaired);
                  ("yield", Json.Num p.Testgen.Repair.yield);
                ])
            r.Testgen.Campaign.spare_curve));
      ("redundancy",
       Json.Arr
         (List.map
            (fun (p : Testgen.Repair.redundancy_point) ->
              Json.Obj
                [
                  ("tubes", Json.int p.Testgen.Repair.tubes);
                  ("overhead", Json.Num p.Testgen.Repair.overhead);
                  ("yield", Json.Num p.Testgen.Repair.yield);
                ])
            r.Testgen.Campaign.redundancy));
    ]

let run_testgen ~pool (j : Job.testgen_job) =
  let* fn =
    match Logic.Cell_fun.find_opt j.Job.tg_cell with
    | Some fn -> Ok fn
    | None ->
      Core.Diag.failf ~stage:"service.run"
        ~context:[ ("cell", j.Job.tg_cell) ]
        "unknown cell function %s" j.Job.tg_cell
  in
  let scheme =
    match j.Job.tg_scheme with
    | `S1 -> Layout.Cell.Scheme1
    | `S2 -> Layout.Cell.Scheme2
  in
  let* cell =
    Layout.Cell.make ~rules ~fn ~style:j.Job.tg_style ~scheme
      ~drive:j.Job.tg_drive
  in
  let config =
    {
      Testgen.Campaign.fault =
        {
          Fault.Injector.trials = j.Job.tg_trials;
          tracks_per_trial = j.Job.tg_tracks_per_trial;
          max_angle_deg = j.Job.tg_max_angle_deg;
          margin = Fault.Injector.default_config.Fault.Injector.margin;
          seed = j.Job.tg_seed;
        };
      max_spares = j.Job.tg_max_spares;
      p_good = j.Job.tg_p_good;
      max_extra_tubes = j.Job.tg_max_extra_tubes;
    }
  in
  let r = Testgen.Campaign.run ~pool config cell in
  Ok (testgen_json r)

let arc_json (a : Stdcell.Characterize.arc) =
  Json.Obj
    [
      ("input", Json.Str a.Stdcell.Characterize.input);
      ("rise_ps", Json.Num (a.Stdcell.Characterize.rise_delay_s *. 1e12));
      ("fall_ps", Json.Num (a.Stdcell.Characterize.fall_delay_s *. 1e12));
      ("avg_ps", Json.Num (a.Stdcell.Characterize.avg_delay_s *. 1e12));
      ("energy_fj",
       Json.Num (a.Stdcell.Characterize.energy_per_cycle_j *. 1e15));
    ]

let run_characterize ~pool (j : Job.characterize_job) =
  let* lib = Stdcell.Library.cnfet ~drives:[ j.Job.char_drive ] () in
  let* entry =
    Stdcell.Library.find lib ~name:j.Job.char_cell ~drive:j.Job.char_drive
  in
  let* points =
    Stdcell.Characterize.sweep ~pool ~lib entry ~loads:j.Job.loads
  in
  Ok
    (Json.Obj
       [
         ("cell", Json.Str entry.Stdcell.Library.cell_name);
         ("drive", Json.int j.Job.char_drive);
         ("points",
          Json.Arr
            (List.map
               (fun (load, arcs) ->
                 Json.Obj
                   [
                     ("load", Json.int load);
                     ("worst_delay_ps",
                      Json.Num
                        (Stdcell.Characterize.worst_delay arcs *. 1e12));
                     ("arcs", Json.Arr (List.map arc_json arcs));
                   ])
               points));
       ])

(* Like testgen, the dse document shape is shared with the CLI's
   [dse --report json] so the two cannot drift. *)
let dse_json (o : Dse.Engine.outcome) =
  let eval_json (e : Dse.Engine.eval) =
    let p = e.Dse.Engine.point in
    Json.Obj
      [
        ( "knobs",
          Json.Obj
            [
              ("pitch_nm", Json.Num p.Dse.Knobs.pitch_nm);
              ("p_metallic", Json.Num p.Dse.Knobs.p_metallic);
              ("removal_eff", Json.Num p.Dse.Knobs.removal_eff);
              ("drive", Json.int p.Dse.Knobs.drive);
              ("scheme", Json.Str (Dse.Knobs.scheme_string p.Dse.Knobs.scheme));
              ("tubes", Json.int e.Dse.Engine.tubes);
            ] );
        ("delay_ps", Json.Num e.Dse.Engine.delay_ps);
        ("energy_fj", Json.Num e.Dse.Engine.energy_fj);
        ("yield", Json.Num e.Dse.Engine.yield_);
        ("yield_lo", Json.Num e.Dse.Engine.yield_lo);
        ("yield_hi", Json.Num e.Dse.Engine.yield_hi);
        ("trials", Json.int e.Dse.Engine.trials);
        ("area_lambda2", Json.int e.Dse.Engine.area_lambda2);
      ]
  in
  let pruned =
    List.length
      (List.filter (fun e -> e.Dse.Engine.pruned) o.Dse.Engine.evaluated)
  in
  Json.Obj
    [
      ("cell", Json.Str o.Dse.Engine.cell);
      ("style", Json.Str (Job.style_string o.Dse.Engine.style));
      ("adaptive", Json.Bool o.Dse.Engine.adaptive);
      ("fine_grid", Json.int o.Dse.Engine.fine_grid);
      ("evaluated", Json.int (List.length o.Dse.Engine.evaluated));
      ("pruned", Json.int pruned);
      ("rounds", Json.int o.Dse.Engine.rounds);
      ("trials", Json.int o.Dse.Engine.trials_total);
      ("front", Json.Arr (List.map eval_json o.Dse.Engine.front));
    ]

let run_dse ~pool (j : Job.dse_job) =
  let* o = Dse.Engine.run ~pool (Job.dse_config j) in
  Ok (dse_json o)

let run ~pool ~pass_cache job =
  match
    match job with
    | Job.Flow j -> run_flow ~pass_cache j
    | Job.Fault j -> run_fault ~pool j
    | Job.Characterize j -> run_characterize ~pool j
    | Job.Testgen j -> run_testgen ~pool j
    | Job.Dse j -> run_dse ~pool j
  with
  | r -> r
  | exception Core.Diag.Failure d -> Error d
  | exception Invalid_argument m ->
    Core.Diag.fail ~stage:"service.run"
      ~context:[ ("job", Job.describe job) ]
      m
  | exception Stdlib.Failure m ->
    Core.Diag.fail ~stage:"service.run"
      ~context:[ ("job", Job.describe job) ]
      m
  | exception e ->
    Core.Diag.failf ~stage:"service.run"
      ~context:[ ("job", Job.describe job) ]
      "unexpected exception: %s" (Printexc.to_string e)
