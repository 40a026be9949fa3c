let () =
  Alcotest.run "m3v"
    [
      ("sim", Test_sim.suite);
      ("noc", Test_noc.suite);
      ("dtu", Test_dtu.suite);
      ("tile", Test_tile.suite);
      ("kernel", Test_kernel.suite);
      ("mux", Test_mux.suite);
      ("os", Test_os.suite);
      ("apps", Test_apps.suite);
      ("linux", Test_linux.suite);
      ("area", Test_area.suite);
      ("integration", Test_integration.suite);
      ("syscalls", Test_syscalls.suite);
      ("props", Test_props.suite);
      ("fault", Test_fault.suite);
      ("par", Test_par.suite);
      ("migrate", Test_migrate.suite);
      ("obs", Test_obs.suite);
      ("load", Test_load.suite);
      ("hostcost", Test_hostcost.suite);
    ]
