(* Tests for the happens-before sanitizer: machine-level harnesses for
   the flagged / clean verdicts, the order-stripping helper, and the
   catalogue-wide cross-check that is this layer's acceptance bar. *)

module Core = Armb_cpu.Core
module Machine = Armb_cpu.Machine
module Barrier = Armb_cpu.Barrier
module San = Armb_check.Sanitizer
module Lang = Armb_litmus.Lang
module Cat = Armb_litmus.Catalogue
module Sim = Armb_litmus.Sim_runner
module Mut = Armb_litmus.Mutate

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Message passing at the Core API level, in four flavours. *)
let mp_findings ~variant =
  let san = San.create () in
  let m =
    Machine.create ~observer:(San.observer san) Armb_platform.Platform.kunpeng916
  in
  let data = Machine.alloc_line m in
  let flag = Machine.alloc_line m in
  Armb_mem.Memsys.place (Machine.mem m) ~core:28 ~addr:data;
  Armb_mem.Memsys.place (Machine.mem m) ~core:0 ~addr:flag;
  (match variant with
  | `Racy ->
    Machine.spawn m ~core:0 (fun c ->
        Core.store c data 23L;
        Core.store c flag 1L);
    Machine.spawn m ~core:28 (fun c ->
        let f = Core.load c flag in
        let d = Core.load c data in
        ignore (Core.await c f);
        ignore (Core.await c d))
  | `Fenced ->
    Machine.spawn m ~core:0 (fun c ->
        Core.store c data 23L;
        Core.barrier c (Barrier.Dmb St);
        Core.store c flag 1L);
    Machine.spawn m ~core:28 (fun c ->
        ignore (Core.await c (Core.load c flag));
        Core.barrier c (Barrier.Dmb Ld);
        ignore (Core.await c (Core.load c data)))
  | `Acq_rel ->
    Machine.spawn m ~core:0 (fun c ->
        Core.store c data 23L;
        Core.stlr c flag 1L);
    Machine.spawn m ~core:28 (fun c ->
        let f = Core.ldar c flag in
        let d = Core.load c data in
        ignore (Core.await c f);
        ignore (Core.await c d))
  | `Pilot ->
    Machine.spawn m ~core:0 (fun c -> Core.store c data 0x1_0000_0017L);
    Machine.spawn m ~core:28 (fun c -> ignore (Core.await c (Core.load c data))));
  Machine.run_exn m;
  San.findings san

let test_racy_mp_flagged () =
  let fs = mp_findings ~variant:`Racy in
  check Alcotest.int "both cores' unfenced pairs flagged" 2 (List.length fs);
  let producer =
    List.find_opt (fun (f : San.finding) -> f.core = 0) fs
  in
  match producer with
  | None -> Alcotest.fail "producer store-store pair not flagged"
  | Some f ->
    check Alcotest.bool "store-store fix suggests dmb st" true (contains f.fix "dmb st");
    check Alcotest.bool "chain reaches the consumer" true
      (List.exists (fun (o : San.op) -> o.op_core = 28) f.chain)

let test_fenced_mp_clean () =
  check Alcotest.int "dmb st / dmb ld MP clean" 0
    (List.length (mp_findings ~variant:`Fenced))

let test_acq_rel_mp_clean () =
  check Alcotest.int "stlr/ldar MP clean" 0
    (List.length (mp_findings ~variant:`Acq_rel))

let test_pilot_mp_clean () =
  check Alcotest.int "single-word Pilot MP clean" 0
    (List.length (mp_findings ~variant:`Pilot))

(* A finding's context shows each core's last five ops, up to the pair's
   second op on its own core, as they stood when the finding was made:
   ops recorded afterwards do not show when it is printed later. *)
let test_context_window () =
  let san = San.create () in
  let m = Machine.create ~observer:(San.observer san) Armb_platform.Platform.kunpeng916 in
  let data = Machine.alloc_line m in
  let flag = Machine.alloc_line m in
  let pad = Machine.alloc_line m in
  Machine.spawn m ~core:0 (fun c ->
      for i = 0 to 5 do
        Core.store c (pad + (8 * i)) 1L
      done;
      Core.store c data 23L;
      Core.store c flag 1L);
  Machine.spawn m ~core:28 (fun c ->
      let f = Core.load c flag in
      let d = Core.load c data in
      ignore (Core.await c f);
      ignore (Core.await c d));
  Machine.run_exn m;
  let render fs = String.concat "" (List.map (Format.asprintf "%a@." San.pp_finding) fs) in
  let at_once = render (San.findings san) in
  let later = San.findings san in
  List.iter
    (fun core ->
      San.observer san
        {
          Armb_cpu.Observe.core;
          seq = 0;
          kind = Armb_cpu.Observe.Fence (Barrier.Dmb Full);
          addr = -1;
          deps = [];
          issued_at = 0;
          completes_at = 0;
        })
    [ 0; 28 ];
  check Alcotest.string "printed after more ops, same text" at_once (render later);
  let windows =
    List.map
      (fun (f : San.finding) ->
        (f.core, List.map (fun (k, lines) -> (k, List.length lines)) (Lazy.force f.context)))
      later
  in
  check
    Alcotest.(list (pair int (list (pair int int))))
    "last five ops of each core, to the second op on the pair's own"
    [ (0, [ (0, 5); (28, 2) ]); (28, [ (0, 5); (28, 2) ]) ]
    windows

(* A core may record 4,096 ops; the 4,097th is refused, naming the core
   and the limit, rather than dropped from the analysis. *)
let test_op_limit () =
  let san = San.create () in
  let record seq =
    San.observer san
      {
        Armb_cpu.Observe.core = 3;
        seq;
        kind =
          (if seq mod 2 = 0 then Armb_cpu.Observe.Store { release = false }
           else Armb_cpu.Observe.Fence (Barrier.Dmb Full));
        addr = 0x1000 + (8 * seq);
        deps = [];
        issued_at = seq;
        completes_at = seq + 1;
      }
  in
  for seq = 0 to 4095 do
    record seq
  done;
  check Alcotest.int "4096 ops on one core record cleanly" 0 (List.length (San.findings san));
  match record 4096 with
  | () -> Alcotest.fail "the 4097th op must be refused"
  | exception Invalid_argument msg ->
    check Alcotest.bool ("message names core 3 and the limit: " ^ msg) true
      (contains msg "core 3" && contains msg "4096")

(* ---------- Bitset against a bool-array model ---------- *)

module Bitset = Armb_check.Bitset

type bs_op =
  | Add of int * int
  | Add_below of int * int
  | Union of int * int
  | Copy of int * int

let bs_sets = 3
let bs_limit = 4200

let bs_op_to_string = function
  | Add (s, i) -> Printf.sprintf "add %d %d" s i
  | Add_below (s, n) -> Printf.sprintf "add_below %d %d" s n
  | Union (d, s) -> Printf.sprintf "union %d %d" d s
  | Copy (d, s) -> Printf.sprintf "%d := copy %d" d s

(* Indices anywhere in [0, bs_limit], half of them next to a multiple
   of the int width, where one word of a set ends and the next begins. *)
let bs_ops =
  let open QCheck.Gen in
  let index =
    oneof
      [
        int_range 0 bs_limit;
        map2
          (fun k d -> max 0 (min bs_limit ((k * Sys.int_size) + d)))
          (int_range 0 (bs_limit / Sys.int_size))
          (int_range (-1) 1);
      ]
  in
  let set = int_range 0 (bs_sets - 1) in
  list_size (int_range 1 60)
    (frequency
       [
         (4, map2 (fun s i -> Add (s, i)) set index);
         (1, map2 (fun s n -> Add_below (s, n)) set index);
         (2, map2 (fun d s -> Union (d, s)) set set);
         (1, map2 (fun d s -> Copy (d, s)) set set);
       ])

let prop_bitset_model =
  QCheck.Test.make ~name:"Bitset agrees with a bool array" ~count:300
    (QCheck.make ~print:(fun l -> String.concat "; " (List.map bs_op_to_string l)) bs_ops)
    (fun ops ->
      let sets = Array.init bs_sets (fun _ -> Bitset.create ()) in
      let model = Array.init bs_sets (fun _ -> Array.make (bs_limit + 1) false) in
      List.iter
        (function
          | Add (s, i) ->
            Bitset.add sets.(s) i;
            model.(s).(i) <- true
          | Add_below (s, n) ->
            Bitset.add_below sets.(s) n;
            Array.fill model.(s) 0 n true
          | Union (d, s) ->
            Bitset.union sets.(d) sets.(s);
            Array.iteri (fun i b -> if b then model.(d).(i) <- true) model.(s)
          | Copy (d, s) ->
            sets.(d) <- Bitset.copy sets.(s);
            model.(d) <- Array.copy model.(s))
        ops;
      (* past the model's range every index is absent *)
      let agrees s i = Bitset.mem sets.(s) i = (i <= bs_limit && model.(s).(i)) in
      List.for_all
        (fun s -> List.for_all (agrees s) (List.init (bs_limit + 200) Fun.id))
        (List.init bs_sets Fun.id))

(* ---------- order stripping ---------- *)

let test_strip_order () =
  let stripped = Mut.strip_order Cat.mp_dmb in
  check Alcotest.bool "stripped test has no devices left" false
    (Mut.has_order_devices stripped);
  let n_instrs t =
    List.fold_left (fun acc th -> acc + List.length th) 0 t.Lang.threads
  in
  (* mp_dmb is MP plus two fences; stripping deletes exactly those. *)
  check Alcotest.int "fences removed" (n_instrs Cat.mp) (n_instrs stripped);
  check Alcotest.bool "acq/rel cleared" false
    (Mut.has_order_devices (Mut.strip_order Cat.mp_acq_rel));
  check Alcotest.bool "data deps severed" false
    (Mut.has_order_devices (Mut.strip_order Cat.lb_data_dep))

let test_has_order_devices () =
  List.iter
    (fun (t, expected) ->
      check Alcotest.bool t.Lang.name expected (Mut.has_order_devices t))
    [
      (Cat.mp, false);
      (Cat.mp_pilot, false);
      (Cat.coherence, false);
      (Cat.mp_dmb, true);
      (Cat.mp_acq_rel, true);
      (Cat.lb_data_dep, true);
      (Cat.iriw_addr, true);
    ]

(* ---------- findings dedup across trials ---------- *)

let test_findings_deduped () =
  let r = Sim.run ~trials:8 ~check:true Cat.mp in
  (* MP has exactly two unfenced pairs (producer W->W, consumer R->R);
     eight trials must not multiply them. *)
  check Alcotest.int "two deduped findings" 2 (List.length r.Sim.findings)

let test_check_off_is_empty () =
  let r = Sim.run ~trials:2 Cat.mp in
  check Alcotest.int "no findings without ~check" 0 (List.length r.Sim.findings)

(* ---------- the acceptance bar: catalogue cross-check ---------- *)

let test_cross_check () =
  let rows, ok = Sim.cross_check ~trials:10 () in
  check Alcotest.int "one row per catalogue test" (List.length Cat.all)
    (List.length rows);
  if not ok then
    List.iter
      (fun (r : Sim.check_row) ->
        if not r.row_ok then
          Alcotest.failf "cross-check failed on %s (base:%d stripped:%s)" r.test_name
            r.base_findings
            (match r.stripped_findings with
            | Some n -> string_of_int n
            | None -> "-"))
      rows

let test_forbidden_tests_clean_and_stripped_flagged () =
  List.iter
    (fun (t : Lang.test) ->
      if not t.Lang.expect_wmm then begin
        let base, stripped = Sim.check_test ~trials:10 t in
        check Alcotest.int (t.Lang.name ^ " base clean") 0
          (List.length base.Sim.findings);
        match stripped with
        | Some r ->
          check Alcotest.bool (t.Lang.name ^ " stripped flagged") true
            (List.length r.Sim.findings > 0)
        | None -> ()
      end)
    Cat.all

let () =
  Alcotest.run "check"
    [
      ( "sanitizer",
        [
          Alcotest.test_case "racy MP flagged" `Quick test_racy_mp_flagged;
          Alcotest.test_case "fenced MP clean" `Quick test_fenced_mp_clean;
          Alcotest.test_case "acq/rel MP clean" `Quick test_acq_rel_mp_clean;
          Alcotest.test_case "Pilot MP clean" `Quick test_pilot_mp_clean;
          Alcotest.test_case "context window" `Quick test_context_window;
          Alcotest.test_case "per-core op limit" `Quick test_op_limit;
        ] );
      ("bitset", [ QCheck_alcotest.to_alcotest prop_bitset_model ]);
      ( "strip",
        [
          Alcotest.test_case "strip_order" `Quick test_strip_order;
          Alcotest.test_case "has_order_devices" `Quick test_has_order_devices;
        ] );
      ( "runner",
        [
          Alcotest.test_case "findings deduped" `Quick test_findings_deduped;
          Alcotest.test_case "check off -> empty" `Quick test_check_off_is_empty;
        ] );
      ( "cross-check",
        [
          Alcotest.test_case "catalogue" `Slow test_cross_check;
          Alcotest.test_case "forbidden clean, stripped flagged" `Slow
            test_forbidden_tests_clean_and_stripped_flagged;
        ] );
    ]
