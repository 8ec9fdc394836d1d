package plan

import "lightyear/internal/delta"

// batchChecks and numChecks are the run loop's batch size and check count,
// which the plan tests bound and compare with.
const batchChecks = delta.BatchChecks

var numChecks = delta.NumChecks
