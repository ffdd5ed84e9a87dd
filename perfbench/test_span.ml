(* The self times of a span's children never add up to more than the
   span itself, and self time never goes negative.  Checked on a real
   nested recording, which is also exported to Chrome trace JSON. *)

let spin seconds =
  let t = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t < seconds do
    ()
  done

let () =
  Span.enabled := true;
  Span.with_ "run" (fun () ->
      spin 0.002;
      Span.with_ "child" (fun () ->
          spin 0.001;
          Span.with_ "grandchild" (fun () -> spin 0.002));
      Span.with_ "child" (fun () -> spin 0.001));
  Span.with_ "after" (fun () -> spin 0.001);
  Span.enabled := false;
  let spans = Span.spans () in
  assert (List.length spans = 5);
  let selfs = Span.self_times spans in
  List.iter
    (fun (p, self) ->
      assert (self >= 0.);
      assert (self <= Span.duration p);
      let children = List.filter (fun (c, _) -> c.Span.parent = p.Span.id) selfs in
      let child_self = List.fold_left (fun a (_, s) -> a +. s) 0. children in
      assert (child_self <= Span.duration p);
      assert (self +. child_self <= Span.duration p +. 1e-9);
      List.iter (fun (c, _) -> assert (c.Span.start >= p.Span.start && c.Span.stop <= p.Span.stop)) children)
    selfs;
  let run, run_self = List.find (fun (s, _) -> s.Span.name = "run") selfs in
  assert (run_self >= 0.002 -. 1e-4);
  assert (Span.total ~name:"child" spans <= Span.duration run);
  let json = Span.to_chrome spans in
  assert (String.length json > 0 && json.[0] = '{');
  print_endline "span self times: ok"
