// Defaults guard (defaults.cpp): each check appends the names of policy
// fields that differ from a default-constructed config.
#pragma once

#include <string>
#include <vector>

#include "argus/discovery.hpp"
#include "transport/client.hpp"
#include "transport/endpoint.hpp"

namespace perfbench {

void check_fast_paths(std::vector<std::string>* bad);
void check_object_config(const argus::core::ObjectEngineConfig& c,
                         std::vector<std::string>* bad);
void check_subject_config(const argus::core::SubjectEngineConfig& c,
                          std::vector<std::string>* bad);
void check_scenario(const argus::core::DiscoveryScenario& sc,
                    std::vector<std::string>* bad);
void check_client_params(const argus::transport::ClientParams& p,
                         std::vector<std::string>* bad);
void check_endpoint_params(const argus::transport::EndpointParams& p,
                           std::vector<std::string>* bad);

}  // namespace perfbench
