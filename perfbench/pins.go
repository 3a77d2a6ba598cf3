package main

// defaultSeed is the seed the results digests below are pinned for.
const defaultSeed = 1

// pinnedDigests are the full-scale results digests of each workload at
// the default seed: a hash of every artifact the workload writes (for
// fabric-jobs, the first batch of jobs). A change that alters any
// artifact byte fails the default-seed run until the pin is updated
// here, deliberately.
var pinnedDigests = map[string]string{
	wordMission: "efd0f6b290153270",
	pageGrid:    "821c87f21593b86d",
	fabricJobs:  "be5e16622026353c",
}
