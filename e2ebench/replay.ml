(* The in-process half of the end-to-end serve benchmark.

   run.py serves a generated request stream through the real
   `cnfet_dk serve` binary, then hands this program two files: the
   request lines of the jobs to replay (one per distinct job, trace_id =
   job key) and the raw "done" events the server answered (keyed the same
   way).

   check mode replays each job through Service.Runner.run and compares
   every served result for it with the replayed one byte for byte (both
   sides rendered by Service.Json.to_string, whose output round-trips
   every number bit for bit).

   trace mode does the same with spans around each layer's public entry
   points (decode, validate, digest, execute, encode), measures what the
   spans cost on a sample of jobs run both ways, and times the layers the
   replay does not reach on its own: the Monte-Carlo core split into
   sampling and evaluation, the flow passes, the journal, recovery, probes
   and the Prometheus renderer.  Spans live in memory and are written out
   as one Chrome trace at exit.  The library's own Telemetry stays off. *)

open Service

let now_s = Unix.gettimeofday

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("replay: " ^ m); exit 2) fmt

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file -> close_in ic; List.rev acc
  in
  go []

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

(* At most [n] elements, evenly spaced through the list. *)
let spread_sample n xs =
  let len = List.length xs in
  if len <= n then xs
  else List.filteri (fun i _ -> i * n / len <> (i + 1) * n / len) xs

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)

type span = {
  sid : int;
  parent : int;  (** 0 for a root *)
  trace : string;  (** the request's trace_id: spans of one request share it *)
  name : string;
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let n_spans = ref 0

(* [span ~parent ~trace name f] records [name] around [f sid]; the
   untraced replay passes [no_span] instead, so both replays run the
   identical sequence of calls. *)
type spanner = {
  span : 'a. ?parent:int -> trace:string -> string -> (int -> 'a) -> 'a;
}

let traced =
  {
    span =
      (fun ?(parent = 0) ~trace name f ->
        incr n_spans;
        let sid = !n_spans in
        let t0 = now_s () in
        let r = f sid in
        spans := { sid; parent; trace; name; t0; t1 = now_s () } :: !spans;
        r);
  }

let no_span = { span = (fun ?parent:_ ~trace:_ _ f -> f 0) }

let chrome_trace () =
  let origin =
    List.fold_left (fun m s -> Float.min m s.t0) infinity !spans
  in
  let ev s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("ts", Json.Num ((s.t0 -. origin) *. 1e6));
        ("dur", Json.Num ((s.t1 -. s.t0) *. 1e6));
        ("pid", Json.int 1);
        ("tid", Json.int 1);
        ( "args",
          Json.Obj
            [
              ("trace_id", Json.Str s.trace);
              ("span", Json.int s.sid);
              ("parent", Json.int s.parent);
            ] );
      ]
  in
  Json.to_string
    (Json.Obj [ ("traceEvents", Json.Arr (List.rev_map ev !spans)) ])

(* ------------------------------------------------------------------ *)
(* Requests                                                           *)

type request = { key : string; line : string; job : Job.t }

let request_of_line line =
  let ( let* ) = Result.bind in
  let r =
    let* req = Result.map_error (fun m -> "invalid JSON: " ^ m) (Json.of_string line) in
    let* key =
      Option.to_result ~none:"missing trace_id"
        (Option.bind (Json.member "trace_id" req) Json.to_str)
    in
    let* jm = Option.to_result ~none:"missing job" (Json.member "job" req) in
    let* job =
      Result.map_error (fun d -> d.Core.Diag.message) (Job.of_json jm)
    in
    Ok { key; line; job }
  in
  match r with Ok r -> r | Error m -> die "bad request line (%s): %s" m line

let result_string = function
  | Ok doc -> Json.to_string doc
  | Error d -> "error: " ^ d.Core.Diag.message

(* One request the way the server handles it: frame decode, job decode,
   admission check, digest, execute, encode the done event. *)
let process sp pool pass_cache r =
  sp.span ~trace:r.key "request" (fun root ->
      let span name f = sp.span ~parent:root ~trace:r.key name (fun _ -> f ()) in
      let req =
        span "service.json.decode" (fun () -> Json.of_string r.line)
      in
      let jm =
        match req with
        | Ok req -> Option.get (Json.member "job" req)
        | Error m -> die "decode: %s" m
      in
      let job =
        match span "service.job.decode" (fun () -> Job.of_json jm) with
        | Ok j -> j
        | Error d -> die "job decode: %s" d.Core.Diag.message
      in
      (match span "service.job.validate" (fun () -> Job.validate job) with
      | Ok () -> ()
      | Error d -> die "validate: %s" d.Core.Diag.message);
      ignore (span "service.job.digest" (fun () -> Job.digest job) : string);
      let t0 = now_s () in
      let result =
        span "service.runner.exec" (fun () -> Runner.run ~pool ~pass_cache job)
      in
      let exec_ms = (now_s () -. t0) *. 1000. in
      let outcome =
        match result with
        | Ok doc -> Scheduler.Done { cached = false; wall_ms = exec_ms; result = doc }
        | Error d -> Scheduler.Failed d
      in
      ignore
        (span "service.json.encode" (fun () ->
             Json.to_string
               (Server.event_of_completion
                  {
                    Scheduler.id = 0;
                    job;
                    priority = Scheduler.Normal;
                    outcome;
                    queue_wait_ms = 0.;
                    finished_at_ms = 0.;
                    trace_id = r.key;
                  }))
          : string);
      (result, exec_ms))

(* ------------------------------------------------------------------ *)
(* Layer probes (trace mode)                                          *)

type metric = { m_name : string; m_unit : string; m_value : float; m_samples : int }

let metric m_name m_unit m_value m_samples = { m_name; m_unit; m_value; m_samples }

let rules = Pdk.Rules.default

(* The cells the mc_cold workload's fault jobs use, at the fault job
   defaults (drive 4, scheme 1, 3 tracks per region, +-8 degrees). *)
let fault_cells =
  [
    ("NAND3", Layout.Cell.Immune_new);
    ("NOR3", Layout.Cell.Immune_new);
    ("AOI21", Layout.Cell.Vulnerable);
    ("AOI22", Layout.Cell.Vulnerable);
    ("NAND3", Layout.Cell.Immune_old);
  ]

(* Trials per fault probe cell. *)
let fault_trials = 2000

let make_cell (name, style) =
  Layout.Cell.make_exn ~rules ~fn:(Logic.Cell_fun.find name) ~style
    ~scheme:Layout.Cell.Scheme1 ~drive:4

type gc_delta = { secs : float; words : float; promoted : float; minors : int }

(* Time [f] and count what it allocates.  The heap is compacted and the
   minor heap emptied first, so at one domain the counts depend only on
   the work done, not on what ran before. *)
let measure f =
  Gc.compact ();
  Gc.minor ();
  let s0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let t0 = now_s () in
  let r = f () in
  let t1 = now_s () in
  let s1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  ( r,
    {
      secs = t1 -. t0;
      words = w1 -. w0;
      promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words;
      minors = s1.Gc.minor_collections - s0.Gc.minor_collections;
    } )

let fault_probe ~nproc =
  let config =
    { Fault.Injector.default_config with trials = fault_trials; seed = 20261 }
  in
  let cells = List.map make_cell fault_cells in
  let campaign () =
    List.map
      (fun cell ->
        traced.span ~trace:"layer.fault" "fault.campaign" (fun _ ->
            snd (measure (fun () -> Fault.Injector.run ~domains:1 config cell))))
      cells
  in
  (* the first pass fills the kit's lazily built tables, so only the
     two passes after it are compared and reported *)
  ignore (campaign () : gc_delta list);
  let first = campaign () in
  let second = campaign () in
  (* the exact counts a later change may rest a claim on: they must
     repeat to the word between two campaigns over the same inputs *)
  List.iter2
    (fun a b ->
      if a.words <> b.words || a.minors <> b.minors then
        die "fault allocation counts differ between identical campaigns \
             (%.0f vs %.0f words, %d vs %d minor GCs)"
          a.words b.words a.minors b.minors)
    first second;
  let n = List.length cells * fault_trials in
  let fn = float_of_int n in
  let total f = List.fold_left (fun acc d -> acc +. f d) 0. second in
  let strays_s = ref 0. and eval_s = ref 0. in
  List.iter
    (fun cell ->
      let prep = Layout.Cell.prepare cell in
      let pun = Fault.Crossing.prepare cell.Layout.Cell.pun in
      let pdn = Fault.Crossing.prepare cell.Layout.Cell.pdn in
      let t0 = now_s () in
      let strays =
        traced.span ~trace:"layer.fault" "fault.strays" (fun _ ->
            Array.init fault_trials (fun i ->
                Fault.Injector.trial_strays config ~pun ~pdn i))
      in
      let t1 = now_s () in
      traced.span ~trace:"layer.fault" "fault.eval" (fun _ ->
          Array.iter
            (fun (pu, pd) ->
              ignore
                (Layout.Cell.drives_of_prepared prep
                   ~pun_extra:(List.concat pu) ~pdn_extra:(List.concat pd)
                  : Logic.Switch_graph.drive array))
            strays);
      strays_s := !strays_s +. (t1 -. t0);
      eval_s := !eval_s +. (now_s () -. t1))
    cells;
  let rate pool_domains =
    Parallel.Pool.with_pool ~domains:pool_domains (fun pool ->
        let t0 = now_s () in
        List.iter
          (fun cell -> ignore (Fault.Injector.run ~pool config cell : Fault.Injector.outcome))
          cells;
        fn /. (now_s () -. t0))
  in
  let serial = rate 1 in
  let parallel = rate nproc in
  [
    metric "fault.us_per_trial" "us" (total (fun d -> d.secs) *. 1e6 /. fn) n;
    metric "fault.words_per_trial" "words" (total (fun d -> d.words) /. fn) n;
    metric "fault.promoted_words_per_trial" "words"
      (total (fun d -> d.promoted) /. fn) n;
    metric "fault.minor_gcs_per_1k_trials" "count"
      (total (fun d -> float_of_int d.minors) *. 1000. /. fn) n;
    metric "fault.strays_us_per_trial" "us" (!strays_s *. 1e6 /. fn) n;
    metric "fault.eval_us_per_trial" "us" (!eval_s *. 1e6 /. fn) n;
    metric "parallel.scaling_nproc" "ratio" (parallel /. serial) n;
  ]

let resolve_source = function
  | Job.Full_adder -> Ok (Flow.Full_adder.netlist ())
  | Job.Ripple bits -> Flow.Ripple_adder.netlist ~bits
  | Job.Netlist_text text -> Flow.Netlist_ir.of_string text
  | Job.Generated spec -> Flow.Generate.of_spec spec

(* Pass times from the pipeline's own Exit events and allocation per
   placed instance; each replayed GDS stream's length is checked against
   the served gds_bytes.  Each run starts with an empty pass cache, so
   every pass executes. *)
let flow_probe ~served_gds (flows : (request * Job.flow_job) list) =
  let passes = [ "validate"; "place"; "layout"; "export" ] in
  let times = Hashtbl.create 8 in
  let words = ref 0. and instances = ref 0 in
  List.iter
    (fun (r, (j : Job.flow_job)) ->
      let ( let* ) = Result.bind in
      let run () =
        let* netlist = resolve_source j.Job.source in
        let drives =
          List.sort_uniq compare
            (List.map
               (fun (i : Flow.Netlist_ir.instance) -> i.Flow.Netlist_ir.drive)
               netlist.Flow.Netlist_ir.instances)
        in
        let* lib = Stdcell.Library.cnfet ~drives () in
        let spec =
          Flow.Pipeline.spec_of_netlist ~scheme:j.Job.scheme
            ~aspect:j.Job.aspect ~lib netlist
        in
        let trace = function
          | Core.Pass.Exit (name, secs, _) ->
            Hashtbl.replace times name
              (secs :: Option.value ~default:[] (Hashtbl.find_opt times name))
          | _ -> ()
        in
        let res, _ = Flow.Pipeline.run ~trace spec in
        let* res = res in
        Ok (netlist, res)
      in
      match measure (fun () -> traced.span ~trace:r.key "flow.pipeline" (fun _ -> run ())) with
      | Error d, _ -> die "flow %s: %s" r.key d.Core.Diag.message
      | Ok (netlist, res), d ->
        words := !words +. d.words;
        instances := !instances + List.length netlist.Flow.Netlist_ir.instances;
        let gds = res.Flow.Pipeline.gds_bytes in
        (match Hashtbl.find_opt served_gds r.key with
        | Some n when n <> String.length gds ->
          die "flow %s: served gds_bytes %d, replayed stream %d bytes" r.key
            n (String.length gds)
        | _ -> ()))
    flows;
  let n = List.length flows in
  List.map
    (fun p ->
      let xs = Option.value ~default:[] (Hashtbl.find_opt times p) in
      metric
        (Printf.sprintf "flow.%s_ms" p)
        "ms"
        (median (List.map (fun s -> s *. 1000.) xs))
        (List.length xs))
    passes
  @ [
      metric "flow.words_per_instance" "words"
        (!words /. float_of_int (max 1 !instances))
        n;
    ]

let characterize_probe pool (jobs : Job.characterize_job list) =
  let ms =
    List.map
      (fun (j : Job.characterize_job) ->
        let lib = Stdcell.Library.cnfet_exn ~drives:[ j.Job.char_drive ] () in
        let entry =
          Stdcell.Library.find_exn lib ~name:j.Job.char_cell
            ~drive:j.Job.char_drive
        in
        let t0 = now_s () in
        traced.span ~trace:"layer.stdcell" "stdcell.characterize" (fun _ ->
            match
              Stdcell.Characterize.sweep ~pool ~lib entry ~loads:j.Job.loads
            with
            | Ok _ -> ()
            | Error d -> die "characterize: %s" d.Core.Diag.message);
        (now_s () -. t0) *. 1000.)
      jobs
  in
  metric "stdcell.characterize_ms" "ms" (median ms) (List.length ms)

let journal_probe ~scratch (reqs : request list) =
  let path = Filename.concat scratch "probe.journal" in
  (try Sys.remove path with Sys_error _ -> ());
  let j =
    match Journal.open_append path with
    | Ok j -> j
    | Error d -> die "journal: %s" d.Core.Diag.message
  in
  let reqs = List.filteri (fun i _ -> i < 200) reqs in
  let us =
    List.mapi
      (fun i r ->
        let e =
          Journal.Submit
            {
              sid = i + 1;
              sjob = r.job;
              sdigest = Job.digest r.job;
              strace = r.key;
              spriority = "normal";
              sdeadline_ms = None;
              scost_ms = None;
            }
        in
        let t0 = now_s () in
        traced.span ~trace:"layer.journal" "service.journal.append" (fun _ ->
            Journal.append j e);
        (now_s () -. t0) *. 1e6)
      reqs
  in
  Journal.close j;
  Sys.remove path;
  metric "service.journal.append_us" "us" (median us) (List.length us)

let copy_file src dst = write_file dst (In_channel.with_open_bin src In_channel.input_all)

(* Scheduler.recover compacts the journal it reads, so every repetition
   starts from a fresh copy of the served run's journal. *)
let recover_probe ~scratch ~journal ~cache_dir =
  let tmp = Filename.concat scratch "recover.journal" in
  let ms =
    List.init 3 (fun _ ->
        copy_file journal tmp;
        let config =
          {
            Scheduler.default_config with
            cache_dir = Some cache_dir;
            journal = Some tmp;
          }
        in
        Scheduler.with_scheduler ~config (fun sched ->
            let t0 = now_s () in
            (match
               traced.span ~trace:"layer.journal" "service.journal.recover"
                 (fun _ -> Scheduler.recover sched)
             with
            | Ok _ -> ()
            | Error d -> die "recover: %s" d.Core.Diag.message);
            (now_s () -. t0) *. 1000.))
  in
  Sys.remove tmp;
  metric "service.journal.recover_ms" "ms" (median ms) 3

let probe_probe () =
  let reps = 1000 in
  Scheduler.with_scheduler (fun sched ->
      let t0 = now_s () in
      traced.span ~trace:"layer.server" "service.server.probe" (fun _ ->
          for i = 1 to reps do
            let line = if i land 1 = 0 then {|{"op":"health"}|} else {|{"op":"metrics"}|} in
            List.iter
              (fun reply -> ignore (Json.to_string reply : string))
              (Server.handle sched line)
          done);
      metric "service.server.probe_us" "us"
        ((now_s () -. t0) *. 1e6 /. float_of_int reps)
        reps)

(* Render a registry shaped like the served one: the samples of a served
   metrics scrape, rebuilt into a snapshot (counters from their _total
   series, every other sample as a gauge). *)
let render_probe body =
  let samples = Telemetry.Prometheus.parse body in
  let counters, gauges =
    List.partition_map
      (fun (s : Telemetry.Prometheus.sample) ->
        let n = s.Telemetry.Prometheus.metric in
        if Filename.check_suffix n "_total" then
          Left (Filename.chop_suffix n "_total", int_of_float s.Telemetry.Prometheus.value)
        else Right (n, s.Telemetry.Prometheus.value))
      samples
  in
  let snap =
    {
      Telemetry.spans = [];
      counters = List.sort_uniq compare counters;
      gauges = List.sort_uniq compare gauges;
      hists = [];
    }
  in
  let reps = 500 in
  let t0 = now_s () in
  traced.span ~trace:"layer.telemetry" "telemetry.prometheus.render" (fun _ ->
      for _ = 1 to reps do
        ignore (Telemetry.Prometheus.render snap : string)
      done);
  metric "telemetry.prometheus.render_us" "us"
    ((now_s () -. t0) *. 1e6 /. float_of_int reps)
    reps

(* ------------------------------------------------------------------ *)
(* Main                                                               *)

let () =
  let mode = ref "" and jobs = ref "" and ref_jobs = ref "" and served = ref "" in
  let out = ref "" and domains = ref 1 and scratch = ref "." in
  let journal = ref "" and cache_dir = ref "" and metrics_body = ref "" in
  let spans_out = ref "" in
  Arg.parse
    [
      ("--jobs", Arg.Set_string jobs, "FILE request lines, one per distinct job");
      ("--ref-jobs", Arg.Set_string ref_jobs, "FILE reference jobs for absent kinds");
      ("--served", Arg.Set_string served, "FILE {key, done} lines from the server");
      ("--out", Arg.Set_string out, "FILE result document");
      ("--domains", Arg.Set_int domains, "N replay pool size");
      ("--scratch", Arg.Set_string scratch, "DIR for temporary files");
      ("--journal", Arg.Set_string journal, "FILE served journal (recover probe)");
      ("--cache-dir", Arg.Set_string cache_dir, "DIR served result cache");
      ("--metrics-body", Arg.Set_string metrics_body, "FILE a served scrape");
      ("--spans", Arg.Set_string spans_out, "FILE Chrome trace output");
    ]
    (fun m -> mode := m)
    "replay (check|trace) --jobs F --served F --out F [options]";
  if !mode <> "check" && !mode <> "trace" then die "mode must be check or trace";
  let reqs = List.map request_of_line (read_lines !jobs) in
  let refs =
    if !ref_jobs = "" then [] else List.map request_of_line (read_lines !ref_jobs)
  in
  (* served results per key, and the gds_bytes of served flow results *)
  let served_results = Hashtbl.create 1024 in
  let served_gds = Hashtbl.create 64 in
  List.iter
    (fun l ->
      match Json.of_string l with
      | Error m -> die "served line: %s" m
      | Ok o ->
        let key = Option.get (Option.bind (Json.member "key" o) Json.to_str) in
        let res = Option.bind (Json.member "done" o) (Json.member "result") in
        (match res with
        | None -> ()
        | Some r ->
          Hashtbl.add served_results key (Json.to_string r);
          (match Option.bind (Json.member "gds_bytes" r) Json.to_int with
          | Some n -> Hashtbl.replace served_gds key n
          | None -> ())))
    (read_lines !served);
  let pool = Parallel.Pool.create ~domains:!domains () in
  let run_one sp pass_cache r =
    let t0 = now_s () in
    let result, exec_ms = process sp pool pass_cache r in
    (r, result_string result, exec_ms, (now_s () -. t0) *. 1000.)
  in
  (* one pass over the jobs in served order, sharing a pass cache the way a
     long-lived server does; in trace mode this is the traced pass, so
     every served result is checked against a traced Runner.run *)
  let replay sp rs = List.map (run_one sp (Core.Pass.cache_create ())) rs in
  let t0 = now_s () in
  let runs = replay (if !mode = "trace" then traced else no_span) reqs in
  let replay_ms = (now_s () -. t0) *. 1000. in
  let checked = ref 0 and mismatches = ref [] in
  List.iter
    (fun (r, got, _, _) ->
      List.iter
        (fun want ->
          incr checked;
          if want <> got then mismatches := r.key :: !mismatches)
        (Hashtbl.find_all served_results r.key))
    runs;
  let job_doc (r, _, exec_ms, _) =
    Json.Obj
      [
        ("key", Json.Str r.key);
        ("kind", Json.Str (Job.kind r.job));
        ("exec_ms", Json.Num exec_ms);
      ]
  in
  let base =
    [
      ("checked", Json.int !checked);
      ("mismatches", Json.Arr (List.rev_map (fun k -> Json.Str k) !mismatches));
      ("replay_ms", Json.Num replay_ms);
    ]
  in
  let doc =
    if !mode = "check" then Json.Obj (base @ [ ("jobs", Json.Arr (List.map job_doc runs)) ])
    else begin
      (* the request spans of the workload's own jobs: per-layer means
         and how much of each request no child span covers *)
      let workload_spans = !spans in
      (* tracing overhead: every 8th job again, untraced and traced back
         to back with fresh pass caches, alternating which goes first *)
      let plain_ms = ref 0. and traced_ms = ref 0. in
      List.iteri
        (fun k (r, want, _, _) ->
          let once sp acc =
            let _, got, _, wall = run_one sp (Core.Pass.cache_create ()) r in
            if got <> want then die "job %s: replayed result differs between passes" r.key;
            acc := !acc +. wall
          in
          if k mod 2 = 0 then (once no_span plain_ms; once traced traced_ms)
          else (once traced traced_ms; once no_span plain_ms))
        (List.filteri (fun i _ -> i mod 8 = 0) runs);
      let traced_ms = !traced_ms and plain_ms = !plain_ms in
      let by_name name =
        List.filter_map
          (fun s -> if s.name = name then Some ((s.t1 -. s.t0) *. 1e6) else None)
          workload_spans
      in
      let child_us = Hashtbl.create 1024 in
      List.iter
        (fun s ->
          if s.parent <> 0 then
            Hashtbl.replace child_us s.parent
              ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child_us s.parent)))
        workload_spans;
      let roots = List.filter (fun s -> s.parent = 0) workload_spans in
      let self =
        sum
          (List.map
             (fun s ->
               (s.t1 -. s.t0) -. Option.value ~default:0. (Hashtbl.find_opt child_us s.sid))
             roots)
      in
      let root_total = sum (List.map (fun s -> s.t1 -. s.t0) roots) in
      let mean_us name =
        let xs = by_name name in
        metric (name ^ "_us") "us" (sum xs /. float_of_int (max 1 (List.length xs))) (List.length xs)
      in
      (* per-kind execution time; a kind the workload lacks is measured
         on its reference job so every workload reports every layer *)
      let ref_runs = replay traced refs in
      let runs_of kind =
        match List.filter (fun (r, _, _, _) -> Job.kind r.job = kind) runs with
        | [] -> List.filter (fun (r, _, _, _) -> Job.kind r.job = kind) ref_runs
        | xs -> xs
      in
      let exec kind =
        let xs = runs_of kind in
        metric ("service.runner.exec_ms." ^ kind) "ms"
          (median (List.map (fun (_, _, e, _) -> e) xs))
          (List.length xs)
      in
      let result_sum kind field =
        List.fold_left
          (fun (n, ms) (_, got, e, _) ->
            match Result.to_option (Json.of_string got) with
            | Some doc ->
              let v = Option.value ~default:0 (Option.bind (Json.member field doc) Json.to_int) in
              (n + v, ms +. e)
            | None -> (n, ms))
          (0, 0.) (runs_of kind)
      in
      let dse_points, dse_ms = result_sum "dse" "evaluated" in
      let tg_trials, tg_ms = result_sum "testgen" "trials" in
      let flows =
        List.filter_map
          (fun (r, _, _, _) ->
            match r.job with Job.Flow j -> Some (r, j) | _ -> None)
          (runs_of "flow")
      in
      let flow_metrics = flow_probe ~served_gds (spread_sample 40 flows) in
      let chars =
        spread_sample 20
          (List.filter_map
             (fun (r, _, _, _) ->
               match r.job with Job.Characterize j -> Some j | _ -> None)
             (runs_of "characterize"))
      in
      let nproc = Domain.recommended_domain_count () in
      let layers =
        [
          mean_us "service.json.decode";
          mean_us "service.job.decode";
          mean_us "service.job.validate";
          mean_us "service.job.digest";
          mean_us "service.json.encode";
        ]
        @ List.map exec [ "fault"; "testgen"; "dse"; "flow"; "characterize" ]
        @ [
            metric "dse.ms_per_point" "ms" (dse_ms /. float_of_int (max 1 dse_points)) dse_points;
            metric "testgen.us_per_trial" "us"
              (tg_ms *. 1000. /. float_of_int (max 1 tg_trials))
              tg_trials;
          ]
        @ flow_metrics
        @ [ characterize_probe pool chars ]
        @ fault_probe ~nproc
        @ [ journal_probe ~scratch:!scratch reqs ]
        @ (if !journal = "" then []
           else [ recover_probe ~scratch:!scratch ~journal:!journal ~cache_dir:!cache_dir ])
        @ [ probe_probe () ]
        @ (if !metrics_body = "" then []
           else
             [ render_probe (In_channel.with_open_bin !metrics_body In_channel.input_all) ])
        @ [
            metric "bench.trace_overhead_frac" "ratio"
              ((traced_ms -. plain_ms) /. plain_ms)
              ((List.length reqs + 7) / 8);
            metric "bench.unattributed_frac" "ratio" (self /. root_total) (List.length roots);
          ]
      in
      if !spans_out <> "" then write_file !spans_out (chrome_trace ());
      let mdoc m =
        ( m.m_name,
          Json.Obj
            [
              ("value", Json.Num m.m_value);
              ("unit", Json.Str m.m_unit);
              ("samples", Json.int m.m_samples);
            ] )
      in
      Json.Obj
        (base
        @ [
            ("jobs", Json.Arr (List.map job_doc runs));
            ("metrics", Json.Obj (List.map mdoc layers));
          ])
    end
  in
  Parallel.Pool.shutdown pool;
  write_file !out (Json.to_string doc ^ "\n")
