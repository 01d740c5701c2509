from benchmarks.past_bench.cli import main

raise SystemExit(main())
