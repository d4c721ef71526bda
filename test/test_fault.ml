(* Fault-injection tests: track geometry, crossing extraction, the Fig. 2
   vulnerable-vs-immune experiment, and immunity of the whole catalog. *)

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let rules = Pdk.Rules.default

let mk style name =
  Layout.Cell.make_exn ~rules ~fn:(Logic.Cell_fun.find name) ~style
    ~scheme:Layout.Cell.Scheme1 ~drive:4

(* a tiny hand-made fabric: [C_Vdd][gA][C_Out] with a row *)
let toy_fabric () =
  let c r elem = { Layout.Fabric.rect = r; elem } in
  let items =
    [
      c (Geom.Rect.of_size ~x:0 ~y:0 ~w:2 ~h:4)
        (Layout.Fabric.Contact Logic.Switch_graph.Vdd);
      c (Geom.Rect.of_size ~x:3 ~y:0 ~w:2 ~h:4) (Layout.Fabric.Gate "A");
      c (Geom.Rect.of_size ~x:6 ~y:0 ~w:2 ~h:4)
        (Layout.Fabric.Contact Logic.Switch_graph.Out);
    ]
  in
  Layout.Fabric.make ~polarity:Logic.Network.P_type
    ~rows:[ Geom.Rect.of_size ~x:0 ~y:0 ~w:8 ~h:4 ]
    items

let track_through_strip () =
  let f = toy_fabric () in
  let t = Fault.Track.horizontal ~y:2. ~x0:(-1.) ~x1:9. in
  let edges = Fault.Crossing.edges f t.Fault.Track.seg in
  check_int "one edge" 1 (List.length edges);
  (match edges with
  | [ e ] ->
    checkb "vdd-out" true
      (e.Logic.Switch_graph.src = Logic.Switch_graph.Vdd
      && e.Logic.Switch_graph.dst = Logic.Switch_graph.Out);
    Alcotest.(check (list string)) "gated by A" [ "A" ] e.Logic.Switch_graph.gates
  | _ -> Alcotest.fail "expected a single edge");
  (* track above the strip touches nothing *)
  let high = Fault.Track.horizontal ~y:5. ~x0:(-1.) ~x1:9. in
  check_int "no edges above" 0
    (List.length (Fault.Crossing.edges f high.Fault.Track.seg))

let etch_cuts_track () =
  let c r elem = { Layout.Fabric.rect = r; elem } in
  let items =
    [
      c (Geom.Rect.of_size ~x:0 ~y:0 ~w:2 ~h:4)
        (Layout.Fabric.Contact Logic.Switch_graph.Vdd);
      c (Geom.Rect.of_size ~x:3 ~y:0 ~w:2 ~h:4) Layout.Fabric.Etch;
      c (Geom.Rect.of_size ~x:6 ~y:0 ~w:2 ~h:4)
        (Layout.Fabric.Contact Logic.Switch_graph.Out);
    ]
  in
  let f =
    Layout.Fabric.make ~polarity:Logic.Network.P_type ~rows:[] items
  in
  let t = Fault.Track.horizontal ~y:2. ~x0:(-1.) ~x1:9. in
  check_int "etch cuts the CNT" 0
    (List.length (Fault.Crossing.edges f t.Fault.Track.seg))

let bare_corridor_shorts () =
  (* two contacts with nothing between: a stray CNT is a hard short *)
  let c r elem = { Layout.Fabric.rect = r; elem } in
  let items =
    [
      c (Geom.Rect.of_size ~x:0 ~y:0 ~w:2 ~h:4)
        (Layout.Fabric.Contact Logic.Switch_graph.Vdd);
      c (Geom.Rect.of_size ~x:6 ~y:0 ~w:2 ~h:4)
        (Layout.Fabric.Contact Logic.Switch_graph.Out);
    ]
  in
  let f = Layout.Fabric.make ~polarity:Logic.Network.P_type ~rows:[] items in
  let t = Fault.Track.horizontal ~y:2. ~x0:(-1.) ~x1:9. in
  match Fault.Crossing.edges f t.Fault.Track.seg with
  | [ e ] -> Alcotest.(check (list string)) "no gates" [] e.Logic.Switch_graph.gates
  | _ -> Alcotest.fail "expected one shorting edge"

let hits_ordered () =
  let f = toy_fabric () in
  let t = Fault.Track.horizontal ~y:1. ~x0:(-1.) ~x1:9. in
  let hs = Fault.Crossing.hits f t.Fault.Track.seg in
  check_int "three hits" 3 (List.length hs);
  let ats = List.map (fun (h : Fault.Crossing.hit) -> h.Fault.Crossing.at) hs in
  checkb "sorted" true (List.sort Stdlib.compare ats = ats)

let track_sampling_bounds () =
  let rng = Random.State.make [| 7 |] in
  let bbox = Geom.Rect.of_size ~x:0 ~y:0 ~w:20 ~h:10 in
  for _ = 1 to 100 do
    let t = Fault.Track.sample rng ~bbox ~max_angle_deg:8. ~margin:2. in
    let p = t.Fault.Track.seg.Geom.Segment.p in
    let q = t.Fault.Track.seg.Geom.Segment.q in
    checkb "spans box" true (p.Geom.Vec.x < 0. && q.Geom.Vec.x > 20.);
    let dy = Float.abs (q.Geom.Vec.y -. p.Geom.Vec.y) in
    let dx = q.Geom.Vec.x -. p.Geom.Vec.x in
    checkb "angle bounded" true (dy /. dx <= tan (8.5 *. Float.pi /. 180.))
  done

let vulnerable_nand2_fails () =
  let cell = mk Layout.Cell.Vulnerable "NAND2" in
  let o =
    Fault.Injector.run
      { Fault.Injector.default_config with Fault.Injector.trials = 300 }
      cell
  in
  checkb "vulnerable layout fails under misposition" true
    (o.Fault.Injector.functional_failures > 0);
  checkb "failures short the output" true (o.Fault.Injector.shorted_trials > 0);
  checkb "horizontal sweep finds the corridor" true
    (match Fault.Injector.horizontal_sweep cell with
    | Error _ -> true
    | Ok () -> false)

let immune_styles_pass_nand2 () =
  List.iter
    (fun style ->
      let cell = mk style "NAND2" in
      let o =
        Fault.Injector.run
          { Fault.Injector.default_config with Fault.Injector.trials = 300 }
          cell
      in
      check_int "no MC failures" 0 o.Fault.Injector.functional_failures;
      checkb "sweep immune" true
        (Fault.Injector.horizontal_sweep cell = Ok ()))
    [ Layout.Cell.Immune_new; Layout.Cell.Immune_old ]

let catalog_immune () =
  List.iter
    (fun fn ->
      List.iter
        (fun style ->
          let cell =
            Layout.Cell.make_exn ~rules ~fn ~style ~scheme:Layout.Cell.Scheme1
              ~drive:4
          in
          (match Fault.Injector.horizontal_sweep cell with
          | Ok () -> ()
          | Error ys ->
            Alcotest.failf "%s sweep: %d corridors" cell.Layout.Cell.name
              (List.length ys));
          let o =
            Fault.Injector.run
              { Fault.Injector.default_config with Fault.Injector.trials = 150 }
              cell
          in
          if o.Fault.Injector.functional_failures > 0 then
            Alcotest.failf "%s MC: %d/150" cell.Layout.Cell.name
              o.Fault.Injector.functional_failures)
        [ Layout.Cell.Immune_new; Layout.Cell.Immune_old ])
    Logic.Cell_fun.all

(* random fabrics + segments: hits come back sorted along the track, with
   parameters in [0,1] and midpoints inside the fabric bounding box *)
let fabric_arb =
  let elem_gen =
    QCheck.Gen.oneofl
      [
        Layout.Fabric.Contact Logic.Switch_graph.Vdd;
        Layout.Fabric.Contact Logic.Switch_graph.Out;
        Layout.Fabric.Contact (Logic.Switch_graph.Internal 1);
        Layout.Fabric.Gate "A";
        Layout.Fabric.Gate "B";
        Layout.Fabric.Etch;
      ]
  in
  QCheck.make
    ~print:(fun (items, seg) ->
      Format.asprintf "%d items, track %a" (List.length items) Geom.Segment.pp
        seg)
    QCheck.Gen.(
      let item =
        let* x = int_range 0 25 in
        let* y = int_range 0 12 in
        let* w = int_range 1 6 in
        let* h = int_range 1 6 in
        let* elem = elem_gen in
        return { Layout.Fabric.rect = Geom.Rect.of_size ~x ~y ~w ~h; elem }
      in
      let* items = list_size (int_range 1 10) item in
      let* y0 = float_range (-2.) 16. in
      let* y1 = float_range (-2.) 16. in
      let seg =
        Geom.Segment.make (Geom.Vec.v (-2.) y0) (Geom.Vec.v 35. y1)
      in
      return (items, seg))

let hits_sorted_and_in_bbox =
  QCheck.Test.make ~count:500
    ~name:"Crossing.hits: sorted by track parameter, inside the fabric bbox"
    fabric_arb
    (fun (items, seg) ->
      let f =
        Layout.Fabric.make ~polarity:Logic.Network.P_type ~rows:[] items
      in
      let hs = Fault.Crossing.hits f seg in
      let ats = List.map (fun (h : Fault.Crossing.hit) -> h.Fault.Crossing.at) hs in
      let bbox = f.Layout.Fabric.bbox in
      List.sort Stdlib.compare ats = ats
      && List.for_all (fun t -> t >= 0. && t <= 1.) ats
      && List.for_all
           (fun t ->
             let p = Geom.Segment.point_at seg t in
             p.Geom.Vec.x >= float_of_int bbox.Geom.Rect.x0 -. 1e-6
             && p.Geom.Vec.x <= float_of_int bbox.Geom.Rect.x1 +. 1e-6
             && p.Geom.Vec.y >= float_of_int bbox.Geom.Rect.y0 -. 1e-6
             && p.Geom.Vec.y <= float_of_int bbox.Geom.Rect.y1 +. 1e-6)
           ats)

let hits_prepared_agrees =
  QCheck.Test.make ~count:500
    ~name:"Crossing cached geometry: hits/edges match the uncached path"
    fabric_arb
    (fun (items, seg) ->
      let f =
        Layout.Fabric.make ~polarity:Logic.Network.N_type ~rows:[] items
      in
      let p = Fault.Crossing.prepare f in
      Fault.Crossing.hits_prepared p seg = Fault.Crossing.hits f seg
      && Fault.Crossing.edges_prepared p seg = Fault.Crossing.edges f seg)

(* [hits] is index-backed; rebuild its answer from the all-items clip so
   the spatial index stays bit-identical to the scan it replaced *)
let hits_match_naive_scan =
  QCheck.Test.make ~count:500
    ~name:"Crossing.hits equals the all-items naive scan" fabric_arb
    (fun (items, seg) ->
      let f =
        Layout.Fabric.make ~polarity:Logic.Network.N_type ~rows:[] items
      in
      let naive =
        Geom.Index.naive_segment
          (List.map
             (fun (p : Layout.Fabric.placed) ->
               (p.Layout.Fabric.rect, p.Layout.Fabric.elem))
             f.Layout.Fabric.items)
          seg
        |> List.map (fun (t0, t1, elem) ->
               { Fault.Crossing.at = (t0 +. t1) /. 2.; elem })
        |> List.sort (fun (a : Fault.Crossing.hit) b ->
               Stdlib.compare a.Fault.Crossing.at b.Fault.Crossing.at)
      in
      Fault.Crossing.hits f seg = naive)

(* The list reference path, built from parts the trial kernel does not
   use: all-items naive clipping, [Crossing.edges_of_hits], the graph of
   [Layout.Cell.graph_with] and the two searches of [drive_table]. *)
let naive_edges (f : Layout.Fabric.t) seg =
  Geom.Index.naive_segment
    (List.map
       (fun (p : Layout.Fabric.placed) ->
         (p.Layout.Fabric.rect, p.Layout.Fabric.elem))
       f.Layout.Fabric.items)
    seg
  |> List.map (fun (t0, t1, elem) ->
         { Fault.Crossing.at = (t0 +. t1) /. 2.; elem })
  |> List.sort (fun (a : Fault.Crossing.hit) b ->
         Stdlib.compare a.Fault.Crossing.at b.Fault.Crossing.at)
  |> Fault.Crossing.edges_of_hits ~polarity:f.Layout.Fabric.polarity

let reference_drives (cell : Layout.Cell.t) ~pun_extra ~pdn_extra =
  Logic.Switch_graph.drive_table
    (Layout.Cell.graph_with cell ~pun_extra ~pdn_extra)
    ~inputs:(Logic.Expr.inputs cell.Layout.Cell.fn.Logic.Cell_fun.core)

let reference_trial (cfg : Fault.Injector.config) (cell : Layout.Cell.t) index =
  let rng =
    Parallel.Split_rng.state ~seed:cfg.Fault.Injector.seed ~stream:index
  in
  let spray (f : Layout.Fabric.t) =
    List.init cfg.Fault.Injector.tracks_per_trial (fun _ ->
        Fault.Track.sample rng ~bbox:f.Layout.Fabric.bbox
          ~max_angle_deg:cfg.Fault.Injector.max_angle_deg
          ~margin:cfg.Fault.Injector.margin)
    |> List.concat_map (fun (t : Fault.Track.t) ->
           naive_edges f t.Fault.Track.seg)
  in
  let pun_extra = spray cell.Layout.Cell.pun in
  let pdn_extra = spray cell.Layout.Cell.pdn in
  let drives = reference_drives cell ~pun_extra ~pdn_extra in
  let got =
    Logic.Truth.of_column
      ~inputs:(Logic.Expr.inputs cell.Layout.Cell.fn.Logic.Cell_fun.core)
      (Array.map Logic.Switch_graph.value_of_drive drives)
  in
  ( not (Logic.Truth.equal got (Layout.Cell.reference_truth cell)),
    Array.mem Logic.Switch_graph.Fight drives,
    Array.mem Logic.Switch_graph.Floating drives,
    List.length pun_extra + List.length pdn_extra )

let cell_gen =
  QCheck.Gen.(
    let* fn = oneofl Logic.Cell_fun.all in
    let* style =
      oneofl Layout.Cell.[ Immune_new; Immune_old; Vulnerable; Cmos ]
    in
    let* scheme = oneofl Layout.Cell.[ Scheme1; Scheme2 ] in
    let* drive = oneofl [ 1; 2; 4 ] in
    return (Layout.Cell.make_exn ~rules ~fn ~style ~scheme ~drive))

let kernel_matches_reference =
  QCheck.Test.make ~count:150
    ~name:"trial kernel = list reference (random cells, seeds, tracks, angles)"
    (QCheck.make
       ~print:(fun ((cell : Layout.Cell.t), seed, tracks, angle) ->
         Printf.sprintf "%s scheme%s seed=%d tracks=%d angle=%g"
           cell.Layout.Cell.name
           (match cell.Layout.Cell.scheme with
           | Layout.Cell.Scheme1 -> "1"
           | Layout.Cell.Scheme2 -> "2")
           seed tracks angle)
       QCheck.Gen.(
         quad cell_gen (int_bound 1_000_000) (int_range 0 8)
           (float_range 0. 15.)))
    (fun (cell, seed, tracks_per_trial, max_angle_deg) ->
      let cfg =
        { Fault.Injector.default_config with
          Fault.Injector.trials = 1; seed; tracks_per_trial; max_angle_deg }
      in
      let k = Fault.Injector.compile cell in
      let s = Fault.Injector.scratch k in
      let trials_agree =
        List.for_all
          (fun i ->
            let t = Fault.Injector.run_trial cfg k s i in
            (t.failed, t.fight, t.floating, t.stray_edges)
            = reference_trial cfg cell i)
          (List.init 12 Fun.id)
      in
      (* horizontal tracks exactly on every item boundary, one region at a
         time, through the kernel's scan and dense evaluator *)
      let boundary_agrees ~pdn (f : Layout.Fabric.t) region =
        let hits = Fault.Crossing.scratch () in
        let strays = Logic.Switch_graph.strays () in
        let drives =
          Array.make (Layout.Cell.prepared_rows k.Fault.Injector.prep)
            Logic.Switch_graph.Floating
        in
        List.for_all
          (fun (p : Layout.Fabric.placed) ->
            List.for_all
              (fun y ->
                let x0 = float_of_int f.Layout.Fabric.bbox.Geom.Rect.x0 -. 1.
                and x1 = float_of_int f.Layout.Fabric.bbox.Geom.Rect.x1 +. 1. in
                let y = float_of_int y in
                let seg = Fault.Crossing.segment hits in
                seg.(0) <- x0; seg.(1) <- y; seg.(2) <- x1; seg.(3) <- y;
                Logic.Switch_graph.clear_strays strays;
                Fault.Crossing.strays_into region hits strays;
                Layout.Cell.drives_into k.Fault.Injector.prep strays drives;
                let extra =
                  naive_edges f
                    (Geom.Segment.make (Geom.Vec.v x0 y) (Geom.Vec.v x1 y))
                in
                let pun_extra, pdn_extra =
                  if pdn then ([], extra) else (extra, [])
                in
                drives = reference_drives cell ~pun_extra ~pdn_extra)
              [ p.Layout.Fabric.rect.Geom.Rect.y0;
                p.Layout.Fabric.rect.Geom.Rect.y1 ])
          f.Layout.Fabric.items
      in
      trials_agree
      && boundary_agrees ~pdn:false cell.Layout.Cell.pun k.Fault.Injector.pun
      && boundary_agrees ~pdn:true cell.Layout.Cell.pdn k.Fault.Injector.pdn)

(* The trial kernel's allocation budget: the split RNG (about 61 words),
   two boxed draws per track and the trial record.  A regression to
   per-trial lists, hashtables or closures lands far above the pin. *)
let kernel_allocation_pin () =
  let cell = mk Layout.Cell.Immune_new "NAND3" in
  let trials = 2000 in
  let cfg = { Fault.Injector.default_config with Fault.Injector.trials } in
  ignore (Fault.Injector.run ~domains:1 cfg cell : Fault.Injector.outcome);
  let w0 = Gc.minor_words () in
  ignore (Fault.Injector.run ~domains:1 cfg cell : Fault.Injector.outcome);
  let per_trial = (Gc.minor_words () -. w0) /. float_of_int trials in
  if per_trial > 256. then
    Alcotest.failf "Injector.run allocates %.0f words per trial (pin: 256)"
      per_trial

let injector_domains_deterministic () =
  let cell = mk Layout.Cell.Vulnerable "NAND2" in
  let cfg = { Fault.Injector.default_config with Fault.Injector.trials = 200 } in
  let serial = Fault.Injector.run ~domains:1 cfg cell in
  List.iter
    (fun domains ->
      let o = Fault.Injector.run ~domains cfg cell in
      checkb
        (Printf.sprintf "identical outcome at %d domains" domains)
        true (o = serial))
    [ 2; 4 ];
  (* vulnerable NAND2 does fail, so the equality above compares nonzero
     tallies, not trivially empty ones *)
  checkb "campaign saw failures" true
    (serial.Fault.Injector.functional_failures > 0)

let injector_rejects_bad_config () =
  let cell = mk Layout.Cell.Immune_new "NAND2" in
  let raises cfg =
    match Fault.Injector.run cfg cell with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "trials = 0 rejected" true
    (raises { Fault.Injector.default_config with Fault.Injector.trials = 0 });
  checkb "negative trials rejected" true
    (raises { Fault.Injector.default_config with Fault.Injector.trials = -5 });
  checkb "negative tracks_per_trial rejected" true
    (raises
       { Fault.Injector.default_config with
         Fault.Injector.tracks_per_trial = -1 });
  (* tracks_per_trial = 0 is legal: it measures the nominal layout *)
  let o =
    Fault.Injector.run
      { Fault.Injector.default_config with
        Fault.Injector.trials = 5; tracks_per_trial = 0 }
      cell
  in
  check_int "zero tracks, zero strays" 0 o.Fault.Injector.stray_edges;
  check_int "zero tracks, zero failures" 0 o.Fault.Injector.functional_failures

let injector_deterministic () =
  let cell = mk Layout.Cell.Vulnerable "NAND2" in
  let cfg = { Fault.Injector.default_config with Fault.Injector.trials = 100 } in
  let a = Fault.Injector.run cfg cell and b = Fault.Injector.run cfg cell in
  check_int "same seed, same failures" a.Fault.Injector.functional_failures
    b.Fault.Injector.functional_failures;
  let c =
    Fault.Injector.run { cfg with Fault.Injector.seed = 99 } cell
  in
  (* a different seed samples different strays (count may coincide) *)
  checkb "different seed runs" true (c.Fault.Injector.trials = 100)

let failure_rate_math () =
  let o =
    {
      Fault.Injector.trials = 200;
      functional_failures = 50;
      shorted_trials = 10;
      fight_trials = 10;
      float_trials = 0;
      stray_edges = 0;
    }
  in
  Alcotest.(check (float 1e-9)) "rate" 0.25 (Fault.Injector.failure_rate o);
  Alcotest.(check (float 1e-9)) "empty rate" 0.
    (Fault.Injector.failure_rate
       { o with Fault.Injector.trials = 0; functional_failures = 0 })

let verify_immunity_api () =
  let req = Cnfet.Synthesis.request (Logic.Cell_fun.nand 3) in
  let cell = Cnfet.Synthesis.immune_cell req in
  checkb "synthesized cell verifies" true
    (Cnfet.Synthesis.verify_immunity ~trials:150 cell = Ok ());
  let _, vuln, _ = Cnfet.Synthesis.reference_cells req in
  checkb "vulnerable reference rejected" true
    (match Cnfet.Synthesis.verify_immunity ~trials:150 vuln with
    | Error _ -> true
    | Ok () -> false)

let suite =
  [
    Alcotest.test_case "track through strip" `Quick track_through_strip;
    Alcotest.test_case "etch cuts track" `Quick etch_cuts_track;
    Alcotest.test_case "bare corridor shorts" `Quick bare_corridor_shorts;
    Alcotest.test_case "hits ordered" `Quick hits_ordered;
    Alcotest.test_case "track sampling bounds" `Quick track_sampling_bounds;
    Alcotest.test_case "vulnerable NAND2 fails (Fig 2b)" `Quick
      vulnerable_nand2_fails;
    Alcotest.test_case "immune NAND2 passes (Fig 2c/3b)" `Quick
      immune_styles_pass_nand2;
    Alcotest.test_case "catalog immune (both styles)" `Slow catalog_immune;
    Alcotest.test_case "injector deterministic" `Quick injector_deterministic;
    Alcotest.test_case "injector deterministic across domains" `Quick
      injector_domains_deterministic;
    Alcotest.test_case "injector rejects bad config" `Quick
      injector_rejects_bad_config;
    QCheck_alcotest.to_alcotest hits_sorted_and_in_bbox;
    QCheck_alcotest.to_alcotest hits_prepared_agrees;
    QCheck_alcotest.to_alcotest hits_match_naive_scan;
    QCheck_alcotest.to_alcotest kernel_matches_reference;
    Alcotest.test_case "trial kernel allocation pin" `Quick
      kernel_allocation_pin;
    Alcotest.test_case "failure rate math" `Quick failure_rate_math;
    Alcotest.test_case "verify_immunity API" `Quick verify_immunity_api;
  ]
