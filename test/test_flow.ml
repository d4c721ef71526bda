(* Flow tests: netlist IR validation and parsing, the NAND2/INV mapper,
   the full adder, both placers and the GDS export of placed designs. *)

let checkb = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let ok r = Core.Diag.ok_exn r

let inst name cell drive output conns =
  { Flow.Netlist_ir.inst_name = name; cell; drive; output; conns }

let simple_netlist () =
  {
    Flow.Netlist_ir.design = "buf2";
    inputs = [ "A" ];
    outputs = [ "Z" ];
    instances =
      [ inst "u1" "INV" 1 "w1" [ ("A", "A") ];
        inst "u2" "INV" 1 "Z" [ ("A", "w1") ] ];
  }

let validate_good () =
  checkb "valid" true (Flow.Netlist_ir.validate (simple_netlist ()) = Ok ())

let validate_multi_driver () =
  let n =
    { (simple_netlist ()) with
      Flow.Netlist_ir.instances =
        [ inst "u1" "INV" 1 "Z" [ ("A", "A") ];
          inst "u2" "INV" 1 "Z" [ ("A", "A") ] ] }
  in
  checkb "multi driver" true
    (match Flow.Netlist_ir.validate n with Error _ -> true | Ok () -> false)

let validate_undriven () =
  let n =
    { (simple_netlist ()) with
      Flow.Netlist_ir.instances = [ inst "u1" "INV" 1 "Z" [ ("A", "ghost") ] ] }
  in
  checkb "undriven input" true
    (match Flow.Netlist_ir.validate n with Error _ -> true | Ok () -> false)

let validate_cycle () =
  let n =
    {
      Flow.Netlist_ir.design = "loop";
      inputs = [];
      outputs = [ "Z" ];
      instances =
        [ inst "u1" "INV" 1 "Z" [ ("A", "w") ];
          inst "u2" "INV" 1 "w" [ ("A", "Z") ] ];
    }
  in
  checkb "cycle rejected" true
    (match Flow.Netlist_ir.validate n with Error _ -> true | Ok () -> false)

let eval_buffer () =
  let n = simple_netlist () in
  checkb "buffer of true" true (ok (Flow.Netlist_ir.eval n (fun _ -> true) "Z"));
  checkb "buffer of false" false (ok (Flow.Netlist_ir.eval n (fun _ -> false) "Z"))

let stats_census () =
  let fa = Flow.Full_adder.netlist () in
  let stats = Flow.Netlist_ir.stats fa in
  check_int "nine NAND2_2X" 9 (List.assoc "NAND2_2X" stats);
  check_int "two INV_4X" 2 (List.assoc "INV_4X" stats)

let parse_roundtrip () =
  let n = Flow.Full_adder.netlist () in
  match Flow.Netlist_ir.of_string (Flow.Netlist_ir.to_string n) with
  | Error e -> Alcotest.fail (Core.Diag.to_string e)
  | Ok back ->
    Alcotest.(check string) "design" n.Flow.Netlist_ir.design
      back.Flow.Netlist_ir.design;
    Alcotest.(check (list string)) "inputs" n.Flow.Netlist_ir.inputs
      back.Flow.Netlist_ir.inputs;
    check_int "instances" (List.length n.Flow.Netlist_ir.instances)
      (List.length back.Flow.Netlist_ir.instances);
    checkb "still a full adder" true
      (Logic.Truth.equal
         (ok (Flow.Netlist_ir.truth_of_output back ~output:"COUT"))
         (ok (Flow.Netlist_ir.truth_of_output n ~output:"COUT")))

let parse_errors () =
  checkb "garbage rejected" true
    (match Flow.Netlist_ir.of_string "inst broken" with
    | Error _ -> true
    | Ok _ -> false);
  checkb "bad drive rejected" true
    (match Flow.Netlist_ir.of_string "inst u1 INV x out=z a=b" with
    | Error _ -> true
    | Ok _ -> false);
  checkb "comments skipped" true
    (match Flow.Netlist_ir.of_string "# hello\ndesign d\ninput A\noutput A\n" with
    | Ok _ -> true
    | Error _ -> false)

let full_adder_correct () =
  checkb "full adder verifies" true (Flow.Full_adder.check () = Ok ())

let mapper_simple () =
  let spec = [ ("Z", Logic.Expr.(And [ var "A"; var "B"; var "C" ])) ] in
  let n = ok (Flow.Mapper.map_exprs ~design:"and3" spec) in
  checkb "validates" true (Flow.Netlist_ir.validate n = Ok ());
  checkb "equivalent" true (Flow.Mapper.check_equivalence n spec = Ok ());
  checkb "uses only NAND2 and INV" true
    (List.for_all
       (fun (i : Flow.Netlist_ir.instance) ->
         i.Flow.Netlist_ir.cell = "NAND2" || i.Flow.Netlist_ir.cell = "INV")
       n.Flow.Netlist_ir.instances)

let mapper_xor_sharing () =
  (* mapping sum and carry together shares the A xor B cone *)
  let spec =
    [ ("S", Flow.Full_adder.sum_expr); ("CO", Flow.Full_adder.cout_expr) ]
  in
  let n = ok (Flow.Mapper.map_exprs ~design:"fa_mapped" spec) in
  checkb "validates" true (Flow.Netlist_ir.validate n = Ok ());
  checkb "equivalent" true (Flow.Mapper.check_equivalence n spec = Ok ())

let mapper_rejects_bad_drive () =
  let spec = [ ("Z", Logic.Expr.(And [ var "A"; var "B" ])) ] in
  List.iter
    (fun drive ->
      match Flow.Mapper.map_exprs ~design:"bad" ~drive spec with
      | Ok _ -> Alcotest.failf "drive %d accepted" drive
      | Error d ->
        Alcotest.(check string) "mapper stage" "mapper" d.Core.Diag.stage;
        checkb "drive in context" true
          (List.assoc_opt "drive" d.Core.Diag.context
          = Some (string_of_int drive)))
    [ 0; -1; -7 ];
  (* the smallest legal drive still maps *)
  checkb "drive 1 accepted" true
    (Result.is_ok (Flow.Mapper.map_exprs ~design:"ok" ~drive:1 spec))

let equivalence_names_mismatching_output () =
  let spec =
    [ ("Z1", Logic.Expr.(And [ var "A"; var "B" ]));
      ("Z2", Logic.Expr.(Or [ var "A"; var "B" ])) ]
  in
  let n = ok (Flow.Mapper.map_exprs ~design:"duo" spec) in
  (* corrupt the netlist: rewire Z2's driver so it computes NAND(A,B)
     instead of OR(A,B) — the structure still validates *)
  let corrupted =
    { n with
      Flow.Netlist_ir.instances =
        List.map
          (fun (i : Flow.Netlist_ir.instance) ->
            if i.Flow.Netlist_ir.output = "Z2" then
              { i with
                Flow.Netlist_ir.cell = "NAND2";
                conns = [ ("A", "A"); ("B", "B") ] }
            else i)
          n.Flow.Netlist_ir.instances }
  in
  checkb "corrupted netlist still validates" true
    (Flow.Netlist_ir.validate corrupted = Ok ());
  match Flow.Mapper.check_equivalence corrupted spec with
  | Ok () -> Alcotest.fail "corruption not detected"
  | Error d ->
    Alcotest.(check string) "mapper stage" "mapper" d.Core.Diag.stage;
    checkb "names the mismatching output" true
      (List.assoc_opt "output" d.Core.Diag.context = Some "Z2");
    checkb "does not blame the good output" true
      (List.assoc_opt "output" d.Core.Diag.context <> Some "Z1")

let positive_expr_gen =
  QCheck.Gen.(
    let var = oneofl [ "A"; "B"; "C" ] >|= Logic.Expr.var in
    fix
      (fun self depth ->
        if depth <= 0 then var
        else
          frequency
            [
              (2, var);
              ( 2,
                let* es = list_size (int_range 2 3) (self (depth - 1)) in
                return (Logic.Expr.and_list es) );
              ( 2,
                let* es = list_size (int_range 2 3) (self (depth - 1)) in
                return (Logic.Expr.or_list es) );
            ])
      2)

let mapper_random_equivalence =
  QCheck.Test.make ~name:"mapper preserves random functions" ~count:60
    (QCheck.make ~print:Logic.Expr.to_string positive_expr_gen)
    (fun e ->
      match Logic.Expr.simplify e with
      | Logic.Expr.Const _ -> true
      | _ ->
        let spec = [ ("Z", e) ] in
        let n = ok (Flow.Mapper.map_exprs ~design:"rnd" spec) in
        Flow.Netlist_ir.validate n = Ok ()
        && Flow.Mapper.check_equivalence n spec = Ok ())

let lib = Stdcell.Library.cnfet_exn ~drives:[ 1; 2; 4; 7; 9 ] ()
let cm_lib = Stdcell.Library.cmos_exn ~drives:[ 1; 2; 4; 7; 9 ] ()

let no_overlaps (p : Flow.Placer.t) =
  let rect (c : Flow.Placer.placed_cell) =
    Geom.Rect.of_size ~x:c.Flow.Placer.x ~y:c.Flow.Placer.y
      ~w:c.Flow.Placer.cell_width ~h:c.Flow.Placer.cell_height
  in
  let rec pairs = function
    | [] -> true
    | c :: rest ->
      List.for_all (fun d -> not (Geom.Rect.intersects (rect c) (rect d))) rest
      && pairs rest
  in
  pairs p.Flow.Placer.cells

let placer_rows () =
  let fa = Flow.Full_adder.netlist () in
  let p = ok (Flow.Placer.rows ~lib fa) in
  check_int "all cells placed" 13 (List.length p.Flow.Placer.cells);
  checkb "no overlaps" true (no_overlaps p);
  checkb "utilization in (0,1]" true
    (Flow.Placer.utilization p > 0. && Flow.Placer.utilization p <= 1.);
  checkb "die covers cells" true
    (List.for_all
       (fun (c : Flow.Placer.placed_cell) ->
         c.Flow.Placer.x + c.Flow.Placer.cell_width <= p.Flow.Placer.die_width
         && c.Flow.Placer.y + c.Flow.Placer.cell_height
            <= p.Flow.Placer.die_height)
       p.Flow.Placer.cells)

let placer_shelves () =
  let fa = Flow.Full_adder.netlist () in
  let p = ok (Flow.Placer.shelves ~lib fa) in
  check_int "all cells placed" 13 (List.length p.Flow.Placer.cells);
  checkb "no overlaps" true (no_overlaps p);
  checkb "better utilization than rows" true
    (Flow.Placer.utilization p
    > Flow.Placer.utilization (ok (Flow.Placer.rows ~lib fa)))

let placer_scheme_gains () =
  let fa = Flow.Full_adder.netlist () in
  let s1 = Flow.Placer.die_area (ok (Flow.Placer.rows ~lib fa)) in
  let s2 = Flow.Placer.die_area (ok (Flow.Placer.shelves ~lib fa)) in
  let cmos = Flow.Placer.die_area (ok (Flow.Placer.rows ~lib:cm_lib fa)) in
  checkb "scheme1 beats CMOS (paper ~1.4x)" true
    (float_of_int cmos /. float_of_int s1 > 1.2);
  checkb "scheme2 beats scheme1 (paper: 1.6x vs 1.4x)" true (s2 < s1)

let wirelength_positive () =
  let fa = Flow.Full_adder.netlist () in
  let p = ok (Flow.Placer.rows ~lib fa) in
  checkb "positive wirelength" true (Flow.Placer.wirelength_estimate p fa > 0)

(* --- synthetic netlist generators --- *)

let generate_multiplier_correct () =
  checkb "mult3 exhaustive" true (Flow.Generate.multiplier_check ~bits:3 = Ok ());
  checkb "mult4 exhaustive" true (Flow.Generate.multiplier_check ~bits:4 = Ok ())

let generate_multiplier_scales () =
  let n = ok (Flow.Generate.multiplier ~bits:8) in
  checkb "validates" true (Flow.Netlist_ir.validate n = Ok ());
  checkb "hundreds of instances" true
    (List.length n.Flow.Netlist_ir.instances > 400);
  check_int "product width" 16 (List.length n.Flow.Netlist_ir.outputs);
  checkb "bits out of range rejected" true
    (match Flow.Generate.multiplier ~bits:0 with
    | Error _ -> true
    | Ok _ -> false)

let generate_lfsr_correct () =
  checkb "lfsr16 x40" true
    (Flow.Generate.lfsr_check ~bits:16 ~steps:40 ~seed:0xACE1 = Ok ());
  checkb "lfsr8 x13" true
    (Flow.Generate.lfsr_check ~bits:8 ~steps:13 ~seed:0x5A = Ok ())

let generate_random_deterministic () =
  let a = ok (Flow.Generate.random_logic ~gates:200 ~inputs:8 ~seed:7) in
  let b = ok (Flow.Generate.random_logic ~gates:200 ~inputs:8 ~seed:7) in
  let c = ok (Flow.Generate.random_logic ~gates:200 ~inputs:8 ~seed:8) in
  checkb "validates" true (Flow.Netlist_ir.validate a = Ok ());
  checkb "same seed, same design" true (a = b);
  checkb "different seed, different design" true (a <> c)

let generate_of_spec () =
  let design s = (ok (Flow.Generate.of_spec s)).Flow.Netlist_ir.design in
  Alcotest.(check string) "mult spec" "mult4" (design "mult4");
  Alcotest.(check string) "lfsr spec" "lfsr8x5" (design "lfsr8x5");
  Alcotest.(check string) "rand spec" "rand50s3" (design "rand50s3");
  checkb "full_adder spec" true (design "full_adder" <> "");
  List.iter
    (fun bad ->
      match Flow.Generate.of_spec bad with
      | Ok _ -> Alcotest.failf "spec %s accepted" bad
      | Error d ->
        let s = Core.Diag.to_string d in
        checkb (bad ^ " named in diagnostic") true
          (List.mem ("spec", bad) d.Core.Diag.context && String.length s > 0))
    [ "mult"; "multx"; "lfsr16"; "rand9"; "tree8"; "" ]

(* The admission budget trusts instance_bound: exact where it claims to
   be, never below the built design elsewhere. *)
let generate_instance_bound () =
  let built spec =
    List.length (ok (Flow.Generate.of_spec spec)).Flow.Netlist_ir.instances
  in
  let bound spec =
    match Flow.Generate.parse_spec spec with
    | Ok p -> Flow.Generate.instance_bound p
    | Error d -> Alcotest.fail (Core.Diag.to_string d)
  in
  List.iter
    (fun spec -> check_int (spec ^ " exact") (built spec) (bound spec))
    [ "mult1"; "mult2"; "mult3"; "mult5"; "mult8"; "mult11"; "mult64";
      "ripple1"; "ripple9"; "full_adder" ];
  List.iter
    (fun spec ->
      checkb (spec ^ " bounded") true (built spec <= bound spec))
    [ "lfsr8x5"; "lfsr16x20"; "lfsr24x60"; "lfsr32x50"; "lfsr5x40";
      "rand50s3"; "rand400s17"; "rand800s999" ];
  check_int "mult65 is past the generator" max_int (bound "mult65");
  check_int "huge counts saturate" max_int (bound "rand4611686018427387903s1")

(* --- placer error paths: diagnostics verbatim --- *)

let lib1 = Stdcell.Library.cnfet_exn ~drives:[ 1 ] ()

let with_first_instance f n =
  { n with
    Flow.Netlist_ir.instances =
      (match n.Flow.Netlist_ir.instances with
      | i :: rest -> f i :: rest
      | [] -> []) }

let placer_unknown_cell_diag () =
  let n =
    with_first_instance
      (fun i -> { i with Flow.Netlist_ir.cell = "XNOR3" })
      (ok (Flow.Generate.multiplier ~bits:2))
  in
  let expect =
    "placer: error: no cell XNOR3 at drive 1 in library cnfet65 \
     (library=cnfet65, cell=XNOR3, drive=1, available_drives=, \
     origin=library, instance=g1)"
  in
  List.iter
    (fun (name, place) ->
      match place ~lib:lib1 n with
      | Ok _ -> Alcotest.failf "%s placed an unknown cell" name
      | Error d ->
        Alcotest.(check string) (name ^ " diagnostic") expect
          (Core.Diag.to_string d))
    [
      ("rows", fun ~lib n -> Flow.Placer.rows ~lib n);
      ("shelves", fun ~lib n -> Flow.Placer.shelves ~lib n);
    ]

let placer_unknown_drive_diag () =
  let n =
    with_first_instance
      (fun i -> { i with Flow.Netlist_ir.drive = 9 })
      (ok (Flow.Generate.multiplier ~bits:2))
  in
  let expect =
    "placer: error: no cell NAND2 at drive 9 in library cnfet65 \
     (library=cnfet65, cell=NAND2, drive=9, available_drives=1, \
     origin=library, instance=g1)"
  in
  List.iter
    (fun (name, place) ->
      match place ~lib:lib1 n with
      | Ok _ -> Alcotest.failf "%s placed an unknown drive" name
      | Error d ->
        Alcotest.(check string) (name ^ " diagnostic") expect
          (Core.Diag.to_string d))
    [
      ("rows", fun ~lib n -> Flow.Placer.rows ~lib n);
      ("shelves", fun ~lib n -> Flow.Placer.shelves ~lib n);
    ]

let gds_export_placement () =
  let fa = Flow.Full_adder.netlist () in
  let p = ok (Flow.Placer.shelves ~lib fa) in
  let bytes = ok (Flow.Gds_export.placement ~lib ~scheme:`S2 ~name:"fa" p) in
  match Gds.Stream.of_bytes bytes with
  | Ok g ->
    (* top + unique cells: INV_{4,7,9}X + NAND2_2X = 5 structures *)
    check_int "structures" 5 (List.length g.Gds.Stream.structures);
    checkb "re-encoding the parsed stream reproduces it" true
      (Gds.Stream.to_bytes g = bytes)
  | Error e -> Alcotest.fail e

(* The pipeline's GDS stream, as the CLI and the service run it: the
   library the design's drives need, default top name, aspect 1.0. *)
let pipeline_gds design scheme =
  let n = ok (Flow.Generate.of_spec design) in
  let drives =
    List.sort_uniq compare
      (List.map
         (fun (i : Flow.Netlist_ir.instance) -> i.Flow.Netlist_ir.drive)
         n.Flow.Netlist_ir.instances)
  in
  let lib = ok (Stdcell.Library.cnfet ~drives ()) in
  let r, report =
    Flow.Pipeline.run (Flow.Pipeline.spec_of_netlist ~scheme ~lib n)
  in
  (ok r, report)

(* md5 of the stream per scheme, recorded from the list-of-records writer
   the encoder replaced: the encoder must stay byte-identical. *)
let gds_digest_pinned design ~s1 ~s2 () =
  List.iter
    (fun (scheme, tag, want) ->
      let r, _ = pipeline_gds design scheme in
      Alcotest.(check string)
        (Printf.sprintf "%s %s md5" design tag)
        want
        (Digest.to_hex (Digest.string r.Flow.Pipeline.gds_bytes)))
    [ (`S1, "s1", s1); (`S2, "s2", s2) ]

let export_counters_pinned () =
  List.iter
    (fun (design, scheme, structures, gds_bytes) ->
      let r, report = pipeline_gds design scheme in
      let export =
        List.find
          (fun p -> p.Core.Pass.pass_name = "export")
          report.Core.Pass.passes
      in
      Alcotest.(check (list (pair string int)))
        (design ^ " export counters")
        [ ("structures", structures); ("gds_bytes", gds_bytes) ]
        export.Core.Pass.counters;
      check_int (design ^ " stream length") gds_bytes
        (String.length r.Flow.Pipeline.gds_bytes))
    [
      ("full_adder", `S2, 5, 19386);
      ("mult8", `S1, 5, 799792);
      ("lfsr24x60", `S1, 3, 617112);
      ("rand400s820", `S1, 9, 907900);
    ]

(* Export's allocation budget per placed instance: the per-layer block and
   offset arrays.  The stream itself is one major-heap buffer.  A writer
   that builds per-rectangle elements or records lands far above. *)
let export_allocation_pin () =
  let n = ok (Flow.Generate.of_spec "mult11") in
  let p = ok (Flow.Placer.rows ~lib:lib1 n) in
  let export () =
    ignore (ok (Flow.Gds_export.placement ~lib:lib1 ~scheme:`S1 ~name:"m" p))
  in
  export ();
  let w0 = Gc.minor_words () in
  export ();
  let per_instance =
    (Gc.minor_words () -. w0) /. float_of_int (List.length p.Flow.Placer.cells)
  in
  if per_instance > 500. then
    Alcotest.failf "export allocates %.0f words per instance (pin: 500)"
      per_instance

let suite =
  [
    Alcotest.test_case "validate good" `Quick validate_good;
    Alcotest.test_case "validate multi-driver" `Quick validate_multi_driver;
    Alcotest.test_case "validate undriven" `Quick validate_undriven;
    Alcotest.test_case "validate cycle" `Quick validate_cycle;
    Alcotest.test_case "eval buffer" `Quick eval_buffer;
    Alcotest.test_case "stats census" `Quick stats_census;
    Alcotest.test_case "parse round-trip" `Quick parse_roundtrip;
    Alcotest.test_case "parse errors" `Quick parse_errors;
    Alcotest.test_case "full adder correct" `Quick full_adder_correct;
    Alcotest.test_case "mapper AND3" `Quick mapper_simple;
    Alcotest.test_case "mapper shares XOR cone" `Quick mapper_xor_sharing;
    Alcotest.test_case "mapper rejects bad drive" `Quick
      mapper_rejects_bad_drive;
    Alcotest.test_case "equivalence names mismatching output" `Quick
      equivalence_names_mismatching_output;
    Alcotest.test_case "placer rows" `Quick placer_rows;
    Alcotest.test_case "placer shelves" `Quick placer_shelves;
    Alcotest.test_case "scheme area gains" `Quick placer_scheme_gains;
    Alcotest.test_case "wirelength positive" `Quick wirelength_positive;
    Alcotest.test_case "gds export placement" `Quick gds_export_placement;
    Alcotest.test_case "generate: multiplier correct" `Quick
      generate_multiplier_correct;
    Alcotest.test_case "generate: multiplier scales" `Quick
      generate_multiplier_scales;
    Alcotest.test_case "generate: lfsr correct" `Quick generate_lfsr_correct;
    Alcotest.test_case "generate: random deterministic" `Quick
      generate_random_deterministic;
    Alcotest.test_case "generate: of_spec" `Quick generate_of_spec;
    Alcotest.test_case "generate: instance bound" `Quick
      generate_instance_bound;
    Alcotest.test_case "placer unknown cell diagnostic" `Quick
      placer_unknown_cell_diag;
    Alcotest.test_case "placer unknown drive diagnostic" `Quick
      placer_unknown_drive_diag;
    Alcotest.test_case "gds md5 pinned: full_adder" `Quick
      (gds_digest_pinned "full_adder" ~s1:"767a392b564acf7377fd9d77048875e3"
         ~s2:"0728b431002ee0d26ae49fd18623faaa");
    Alcotest.test_case "gds md5 pinned: mult8" `Quick
      (gds_digest_pinned "mult8" ~s1:"61e571a19889ce37101075de60710e74"
         ~s2:"c4a14543d9df9f9af2611b5ff405cc1b");
    Alcotest.test_case "gds md5 pinned: lfsr24x60" `Quick
      (gds_digest_pinned "lfsr24x60" ~s1:"4ee65ea612e3eb8bf9f5c734f19cce1e"
         ~s2:"39bfd7119997cd3d22c30b3cd05bca6b");
    Alcotest.test_case "gds md5 pinned: rand400s820" `Quick
      (gds_digest_pinned "rand400s820" ~s1:"ecc5d32aa6198e11b21554e059936ca9"
         ~s2:"b179dd605eba5ae38c91600e3a7bc729");
    Alcotest.test_case "export counters pinned" `Quick export_counters_pinned;
    Alcotest.test_case "export allocation pin" `Quick export_allocation_pin;
    QCheck_alcotest.to_alcotest mapper_random_equivalence;
  ]
