(* hqbench's own checks: seeded generators are deterministic, the names
   agree with BENCHMARK.json, one cycle of every workload agrees with the
   kdb interpreter, and the oracle catches a corrupted reply. *)

open Hqsuite
module MD = Workload.Marketdata

let benchmark_json = "../../../BENCHMARK.json"

(* every ["name": ..., "unit": ...] pair and every workload name *)
let declared () : (string * string option) list =
  let s = In_channel.with_open_bin benchmark_json In_channel.input_all in
  let re =
    Str.regexp
      "\"name\": *\"\\([^\"]*\\)\"\\(, *\"unit\": *\"\\([^\"]*\\)\"\\)?"
  in
  let rec go pos acc =
    match Str.search_forward re s pos with
    | exception Not_found -> List.rev acc
    | _ ->
        let unit = try Some (Str.matched_group 3 s) with Not_found -> None in
        go (Str.match_end ()) ((Str.matched_group 1 s, unit) :: acc)
  in
  go 0 []

let test_names () =
  let expected =
    List.map (fun w -> (w.Workloads.name, None)) Workloads.all
    @ List.map (fun (n, u) -> (n, Some u)) Harness.end_to_end
    @ List.map (fun (n, u) -> (n, Some u)) Layers.specs
  in
  let show = List.map (fun (n, u) -> n ^ "/" ^ Option.value ~default:"" u) in
  Alcotest.(check (list string))
    "names and units" (show expected) (show (declared ()));
  let ok = Str.regexp "^[A-Za-z0-9_.-]+$" in
  List.iter
    (fun (n, _) ->
      Alcotest.(check bool) ("name charset: " ^ n) true (Str.string_match ok n 0))
    expected

let test_deterministic () =
  List.iter
    (fun (w : Workloads.t) ->
      let gen () =
        let d = MD.generate ~seed:7 w.Workloads.scale in
        (d.MD.trades, d.MD.quotes, Workloads.pool w ~seed:7 d)
      in
      Alcotest.(check bool) (w.Workloads.name ^ " same seed") true (gen () = gen ());
      let d = MD.generate ~seed:7 w.Workloads.scale in
      Alcotest.(check int)
        (w.Workloads.name ^ " pool size")
        (Workloads.pool_cycles * Workloads.shapes w)
        (Array.length (Workloads.pool w ~seed:7 d));
      let n = Workloads.timed_requests w ~seconds:10.0 in
      Alcotest.(check bool)
        (w.Workloads.name ^ " timed requests: whole cycles, >= 1,000")
        true
        (n >= Workloads.min_requests && n mod Workloads.shapes w = 0))
    Workloads.all

(* one shape cycle per workload, replayed against the kdb interpreter *)
let test_smoke_cycle (w : Workloads.t) () =
  let s = Harness.build w ~seed:3 in
  Fun.protect
    ~finally:(fun () -> Harness.tear_down s)
    (fun () ->
      let mismatches =
        Oracle.check s.Harness.platform s.Harness.d
          ~setup:(w.Workloads.setup s.Harness.d)
          (Array.sub s.Harness.reqs 0 (Workloads.shapes w))
      in
      List.iter (fun (q, why) -> Printf.printf "%s: %s\n" q why) mismatches;
      Alcotest.(check int) "oracle mismatches" 0 (List.length mismatches))

(* flip the most significant byte of the last long in a real reply *)
let test_oracle_flags_corruption () =
  let w = Workloads.dashboard in
  let s = Harness.build w ~seed:3 in
  Fun.protect
    ~finally:(fun () -> Harness.tear_down s)
    (fun () ->
      let r = s.Harness.reqs.(1) in
      Alcotest.(check bool)
        "a scalar-sum request" true
        (String.starts_with ~prefix:"select s:sum Size" r.Workloads.text);
      let kdb = Kdb.Server.create () in
      List.iter
        (fun (name, v) -> Kdb.Server.load kdb name v)
        (MD.q_tables s.Harness.d);
      let expected = Kdb.Server.query kdb ~client:0 r.Workloads.text in
      let reply, hq = Harness.exchange s.Harness.client r.Workloads.text in
      Alcotest.(check (option string))
        "intact reply agrees" None
        (Oracle.judge r ~kdb:expected ~hq);
      let bytes = Bytes.of_string reply in
      let last = Bytes.length bytes - 1 in
      Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 1));
      let corrupted = Harness.decode (Bytes.to_string bytes) in
      Alcotest.(check bool)
        "corrupted reply flagged" true
        (Oracle.judge r ~kdb:expected ~hq:corrupted <> None);
      Alcotest.(check bool)
        "assignment must get the unit reply" true
        (Oracle.judge (Workloads.assign "t:1") ~kdb:expected ~hq <> None))

let () =
  Alcotest.run "hqbench"
    [
      ( "contract",
        [
          Alcotest.test_case "names match BENCHMARK.json" `Quick test_names;
          Alcotest.test_case "seeded generators" `Quick test_deterministic;
        ] );
      ( "smoke cycle",
        List.map
          (fun w -> Alcotest.test_case w.Workloads.name `Quick (test_smoke_cycle w))
          Workloads.all );
      ( "oracle",
        [ Alcotest.test_case "flags a corrupted reply" `Quick test_oracle_flags_corruption ] );
    ]
